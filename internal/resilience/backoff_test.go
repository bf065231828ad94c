package resilience

import (
	"errors"
	"testing"
	"time"
)

type hintedErr struct{ d time.Duration }

func (e *hintedErr) Error() string                 { return "try later" }
func (e *hintedErr) RetryAfterHint() time.Duration { return e.d }

func TestBackoffCapGrowth(t *testing.T) {
	b := NewBackoff(10*time.Millisecond, 80*time.Millisecond, 7)
	// Delay for attempt k is jittered in [0, min(base<<(k-1), max)].
	caps := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, c := range caps {
		c *= time.Millisecond
		for trial := 0; trial < 200; trial++ {
			if d := b.Delay(i+1, nil); d < 0 || d > c {
				t.Fatalf("attempt %d: delay %v outside [0, %v]", i+1, d, c)
			}
		}
	}
	// Absurd attempt counts must not overflow the shift into a negative cap.
	if d := b.Delay(200, nil); d < 0 || d > 80*time.Millisecond {
		t.Fatalf("attempt 200: delay %v", d)
	}
}

func TestBackoffRetryAfterFloor(t *testing.T) {
	b := NewBackoff(time.Millisecond, 4*time.Millisecond, 3)
	hint := 250 * time.Millisecond
	err := error(&hintedErr{d: hint})
	for trial := 0; trial < 100; trial++ {
		if d := b.Delay(1, err); d < hint {
			t.Fatalf("delay %v below Retry-After floor %v", d, hint)
		}
	}
	// A hint below the jittered delay does not cap it — it is a floor only.
	small := error(&hintedErr{d: 0})
	sawAbove := false
	for trial := 0; trial < 200 && !sawAbove; trial++ {
		sawAbove = b.Delay(3, small) > 0
	}
	if !sawAbove {
		t.Fatal("zero hint flattened all jittered delays to zero")
	}
	// Hints survive wrapping.
	wrapped := errors.Join(errors.New("outer"), err)
	if d := b.Delay(1, wrapped); d < hint {
		t.Fatalf("wrapped hint ignored: %v", d)
	}
}

func TestBackoffZeroConfigDefaults(t *testing.T) {
	b := NewBackoff(0, 0, 0)
	if d := b.Delay(1, nil); d < 0 || d > 10*time.Millisecond {
		t.Fatalf("default first delay %v", d)
	}
	if d := b.Delay(50, nil); d < 0 || d > time.Second {
		t.Fatalf("default capped delay %v", d)
	}
}
