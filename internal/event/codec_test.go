package event

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

// codecSample returns a batch exercising every field class: full enrichment,
// a minimal event, negative numbers, offset-without-tag, and values beyond
// 2^53 that a float64 round-trip would corrupt.
func codecSample() []Event {
	return []Event{
		{
			Session: "s1", Syscall: "pread64", Class: "data", RetVal: 4096,
			FD: 7, ArgPath: "/var/log/app.log", ArgPath2: "", Count: 4096,
			ArgOff: 128, Whence: 0, Flags: 0, Mode: 0, AttrName: "",
			PID: 42, TID: 43, ProcName: "fluent-bit", ThreadName: "flb-pipeline",
			TimeEnterNS: 2156997363734041, TimeExitNS: 2156997363734141,
			FileTag:  FileTag{Dev: 7340032, Ino: 12, BirthNS: 2156997363734000},
			FileType: "regular", Offset: 128, HasOffset: true,
			KernelPath: "/var/log/app.log", FilePath: "/var/log/app.log",
		},
		{Session: "s1", Syscall: "close", Class: "descriptor", RetVal: 0, FD: 7,
			PID: 42, TID: 43, ProcName: "fluent-bit", ThreadName: "flb-pipeline",
			TimeEnterNS: 2156997363735000, TimeExitNS: 2156997363735010},
		{
			Session: "s2", Syscall: "openat", Class: "metadata", RetVal: -2,
			ArgPath: "/etc/missing", Flags: 0x8000, Mode: 0o644,
			PID: 1, TID: 1, ProcName: "db_bench", ThreadName: "main",
			// Timestamps above 2^53 must survive exactly.
			TimeEnterNS: (1 << 60) + 1, TimeExitNS: (1 << 60) + 7,
		},
		{Session: "s2", Syscall: "lseek", Class: "metadata", RetVal: 100,
			FD: 3, Whence: 1, PID: 1, TID: 2, ProcName: "db_bench",
			ThreadName: "worker-1", TimeEnterNS: 10, TimeExitNS: 20,
			Offset: 100, HasOffset: true},
		{Session: "s3", Syscall: "fsetxattr", Class: "extattr", RetVal: 0,
			FD: 9, AttrName: "user.dio", PID: 5, TID: 5,
			ProcName: "p", ThreadName: "t", TimeEnterNS: 1, TimeExitNS: 2},
	}
}

// TestCodecRoundTrip: every field survives, on the mixed sample and on a
// batch where every field changes on every row, and EncodedSize is the
// frame's length.
func TestCodecRoundTrip(t *testing.T) {
	for name, in := range map[string][]Event{"sample": codecSample(), "churn": churnBatch()} {
		frame := EncodeBatch(nil, in)
		if got, want := len(frame), EncodedSize(in); got != want {
			t.Fatalf("%s: EncodedSize = %d, frame is %d bytes", name, want, got)
		}
		out, err := DecodeBatch(frame, nil)
		if err != nil {
			t.Fatalf("%s: DecodeBatch: %v", name, err)
		}
		if len(out) != len(in) {
			t.Fatalf("%s: decoded %d events, want %d", name, len(out), len(in))
		}
		for i := range in {
			if out[i] != in[i] {
				t.Errorf("%s: event %d mismatch:\n got %+v\nwant %+v", name, i, out[i], in[i])
			}
		}
	}
}

func TestCodecEmptyBatch(t *testing.T) {
	frame := EncodeBatch(nil, nil)
	out, err := DecodeBatch(frame, nil)
	if err != nil {
		t.Fatalf("DecodeBatch(empty): %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("decoded %d events from empty batch", len(out))
	}
}

func TestCodecAppendsToDst(t *testing.T) {
	in := codecSample()
	frame := EncodeBatch(nil, in)
	prefix := []Event{{Session: "keep-me"}}
	out, err := DecodeBatch(frame, prefix)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(out) != 1+len(in) || out[0].Session != "keep-me" {
		t.Fatalf("dst prefix not preserved: len=%d first=%q", len(out), out[0].Session)
	}
}

// TestCodecOffsetClearedWithoutFlag pins the invariant that a decoded event
// never carries a stale offset when has_offset is false, matching the
// document form where offset is omitted.
func TestCodecOffsetClearedWithoutFlag(t *testing.T) {
	in := []Event{{Session: "s", Syscall: "read", Class: "data",
		PID: 1, TID: 1, ProcName: "p", ThreadName: "t",
		Offset: 999, HasOffset: false}}
	out, err := DecodeBatch(EncodeBatch(nil, in), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Offset != 0 || out[0].HasOffset {
		t.Fatalf("offset leaked without has_offset: %+v", out[0])
	}
}

// TestCodecOverlongString pins the truncation rule for strings beyond the
// 65 535-byte literal cap: EncodeBatch writes the first 65 535 bytes, and
// EncodedSize agrees with the bytes written. The trailing event, whose
// strings differ from the first row's, must decode intact after the long
// literal.
func TestCodecOverlongString(t *testing.T) {
	long := strings.Repeat("p", 0xFFFF+4096)
	in := overlongBatch(long)
	frame := EncodeBatch(nil, in)
	if got, want := len(frame), EncodedSize(in); got != want {
		t.Fatalf("frame is %d bytes, EncodedSize says %d", got, want)
	}
	out, err := DecodeBatch(frame, nil)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(out) != 2 || out[1].Syscall != "close" {
		t.Fatalf("decoded %d events, second = %+v", len(out), out[min(1, len(out)-1)])
	}
	if out[0].ArgPath != long[:0xFFFF] {
		t.Fatalf("decoded ArgPath len=%d, want truncation to %d", len(out[0].ArgPath), 0xFFFF)
	}
}

func overlongBatch(long string) []Event {
	return []Event{
		{Session: "s", Syscall: "openat", Class: "metadata",
			ProcName: "p", ThreadName: "t", ArgPath: long,
			PID: 1, TID: 1, TimeEnterNS: 1, TimeExitNS: 2},
		{Session: "s", Syscall: "close", Class: "descriptor",
			ProcName: "p", ThreadName: "t", FD: 3,
			PID: 1, TID: 1, TimeEnterNS: 3, TimeExitNS: 4},
	}
}

// TestCodecNarrowsInt32Fields: pid, tid, fd, count, whence and flags are
// 32-bit on every surface, so a wider value leaves the frame cut to int32 —
// as a segment column stores it — and EncodedSize counts what was written.
func TestCodecNarrowsInt32Fields(t *testing.T) {
	wide := []int{1<<31 + 5, -(1 << 33) - 1, 1<<40 | 3, math.MaxInt64, math.MinInt64, 1 << 31}
	in := []Event{
		{Session: "s", PID: 7, TID: 7, FD: 3},
		{Session: "s", PID: wide[0], TID: wide[1], FD: wide[2], Count: wide[3], Whence: wide[4], Flags: wide[5]},
		{Session: "s", PID: 8, TID: wide[0], FD: 4},
	}
	frame := EncodeBatch(nil, in)
	if got, want := len(frame), EncodedSize(in); got != want {
		t.Fatalf("EncodedSize = %d, frame is %d bytes", want, got)
	}
	out, err := DecodeBatch(frame, nil)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	for i, e := range in {
		want := e
		for _, f := range []*int{&want.PID, &want.TID, &want.FD, &want.Count, &want.Whence, &want.Flags} {
			*f = int(int32(*f))
		}
		if out[i] != want {
			t.Errorf("event %d:\n got %+v\nwant %+v", i, out[i], want)
		}
	}
}

// churnBatch is a frame's worst case: every string and every integer
// changes on every row, and each integer field takes its extreme values.
func churnBatch() []Event {
	in := make([]Event, 6)
	for i := range in {
		v := int64(i)
		x := v * (1 << 62) / 3
		// The 32-bit fields swing between their extremes.
		n := math.MaxInt32 - i
		if i%2 == 1 {
			x, n = -x, math.MinInt32+i
		}
		in[i] = Event{
			Session: fmt.Sprint("session-", i), Syscall: fmt.Sprint("sys-", i),
			Class: fmt.Sprint("class-", i), ProcName: fmt.Sprint("proc-", i),
			ThreadName: fmt.Sprint("thread-", i), ArgPath: fmt.Sprint("/a/", i),
			ArgPath2: fmt.Sprint("/b/", i), AttrName: fmt.Sprint("user.", i),
			FileType: fmt.Sprint("type-", i), KernelPath: fmt.Sprint("/k/", i),
			FilePath: fmt.Sprint("/f/", i),
			RetVal:   x, ArgOff: -x, TimeEnterNS: x + 1, TimeExitNS: -x,
			Offset: x ^ 7, HasOffset: i%3 != 0,
			FileTag: FileTag{Dev: uint64(x) * 3, Ino: ^uint64(x), BirthNS: x / 5},
			PID:     n, TID: -n - 1, FD: n ^ 1, Count: ^n, Whence: n >> 3,
			Flags: n / 7, Mode: uint32(x) ^ uint32(i<<31),
		}
		if !in[i].HasOffset {
			in[i].Offset = 0
		}
	}
	return in
}

// frameOf assembles a frame by hand: the header with count, then body.
func frameOf(count uint64, body ...[]byte) []byte {
	f := binary.AppendUvarint(append(codecMagic[:], CodecVersion), count)
	for _, b := range body {
		f = append(f, b...)
	}
	return f
}

// emptyRow is the smallest row: every string the previous row's (empty),
// every integer zero, no aux bit.
func emptyRow() []byte { return make([]byte, codecMinRowLen) }

// intRow is emptyRow with integer field k (in frame order) set to v.
func intRow(k int, v int64) []byte {
	r := binary.AppendVarint(make([]byte, codecStringCount+k), v)
	return append(r, make([]byte, codecIntCount-k)...)
}

// TestCodecCorruptFrames checks that malformed frames produce ErrBadFrame —
// never a panic and never silently-decoded garbage — and that dst is
// returned unchanged.
func TestCodecCorruptFrames(t *testing.T) {
	sample := codecSample()
	good := EncodeBatch(nil, sample)
	body := good[len(frameOf(uint64(len(sample)))):]
	overCap := append([]byte{refLiteral}, binary.AppendUvarint(nil, codecMaxStringLen+1)...)
	overCap = append(overCap, strings.Repeat("x", codecMaxStringLen+1)...)
	overCap = append(overCap, emptyRow()[1:]...)
	corrupt := map[string][]byte{
		"empty":          {},
		"short header":   good[:5],
		"bad magic":      append([]byte("XIOE"), good[4:]...),
		"bad version":    mutate(good, 4, 1),
		"truncated body": good[:len(good)-3],
		"trailing bytes": append(append([]byte(nil), good...), 0xaa),
		// A count past the codec's bound, whatever follows it.
		"huge count": frameOf(1<<40, body),
		// One row promised and none of its bytes present.
		"zero event length":                        frameOf(1),
		"count larger than the rows present":       frameOf(uint64(len(sample)+1), body),
		"string ref past the dictionary":           frameOf(1, []byte{refDict}, emptyRow()[1:]),
		"literal longer than the rest of the body": frameOf(1, []byte{refLiteral, 100}, emptyRow()[1:]),
		"literal over the cap":                     frameOf(1, overCap),
		"varint with ten continuation bytes": frameOf(1, make([]byte, codecStringCount),
			bytes.Repeat([]byte{0x80}, 10), []byte{0}, emptyRow()[codecStringCount:]),
		// The 32-bit fields, by frame index: pid and tid are deltas, so tid
		// leaves the range only on the second row.
		"pid past int32":          frameOf(1, intRow(2, 1<<31)),
		"tid past int32 by delta": frameOf(2, intRow(3, math.MaxInt32), intRow(3, 1)),
		"fd past int32":           frameOf(1, intRow(10, math.MinInt32-1)),
		"count past int32":        frameOf(1, intRow(11, 1<<31)),
		"whence past int32":       frameOf(1, intRow(12, 1<<40)),
		"flags past int32":        frameOf(1, intRow(13, math.MinInt64)),
		"mode past uint32":        frameOf(1, intRow(14, 1<<32)),
	}
	for name, frame := range corrupt {
		for _, dst := range [][]Event{{{Session: "sentinel"}}, append(make([]Event, 0, 64), Event{Session: "sentinel"})} {
			out, err := DecodeBatch(frame, dst)
			if err == nil {
				t.Errorf("%s: decoded without error", name)
				continue
			}
			if !errors.Is(err, ErrBadFrame) {
				t.Errorf("%s: error %v is not ErrBadFrame", name, err)
			}
			if len(out) != 1 || out[0].Session != "sentinel" || out[0] != dst[0] {
				t.Errorf("%s: dst modified on error: %+v", name, out)
			}
		}
	}
}

func mutate(b []byte, i int, v byte) []byte {
	c := append([]byte(nil), b...)
	c[i] = v
	return c
}

// TestCodecCountBoundedByBytes: a count the bytes in hand cannot back sizes
// nothing past them. A frame claiming 65 536 rows in 27 bytes would
// otherwise allocate 16 MB of events before failing at the second row.
func TestCodecCountBoundedByBytes(t *testing.T) {
	frame := frameOf(1<<16, emptyRow())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := DecodeBatch(frame, nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("DecodeBatch: %v, want ErrBadFrame", err)
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 64<<10 {
		t.Fatalf("a 1-row frame claiming 65536 rows allocated %d bytes", grown)
	}
}

// TestCodecInterning verifies the decoder deduplicates repeated strings so a
// large batch shares one allocation per distinct name.
func TestCodecInterning(t *testing.T) {
	in := make([]Event, 64)
	for i := range in {
		in[i] = Event{Session: "shared-session", Syscall: "read", Class: "data",
			ProcName: "proc", ThreadName: "thread", PID: 1, TID: 1}
	}
	out, err := DecodeBatch(EncodeBatch(nil, in), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(out); i++ {
		// Interned strings share backing storage; comparing data pointers
		// via the == fast path is not observable, so assert equality and
		// rely on the allocation test below for the sharing property.
		if out[i].Session != out[0].Session || out[i].Syscall != out[0].Syscall {
			t.Fatalf("event %d strings diverge", i)
		}
	}
}

// TestDecodeAllocsPerEvent pins the decode path's allocation budget: each
// distinct string is allocated once per frame, so a batch of events with
// repeated strings stays under a quarter of an allocation per event.
func TestDecodeAllocsPerEvent(t *testing.T) {
	in := make([]Event, 512)
	for i := range in {
		in[i] = Event{Session: "s", Syscall: "read", Class: "data",
			ProcName: "proc", ThreadName: "thread", PID: 1, TID: int(uint16(i)),
			TimeEnterNS: int64(i), TimeExitNS: int64(i) + 5, RetVal: 4096}
	}
	frame := EncodeBatch(nil, in)
	dst := make([]Event, 0, len(in))
	allocs := testing.AllocsPerRun(10, func() {
		out, err := DecodeBatch(frame, dst[:0])
		if err != nil || len(out) != len(in) {
			t.Fatalf("decode: %v (%d events)", err, len(out))
		}
	})
	if perEvent := allocs / float64(len(in)); perEvent > 0.25 {
		t.Fatalf("decode allocates %.2f allocs/event (total %.0f), budget is 0.25", perEvent, allocs)
	}
}

// raceEnabled reports a -race build (race_test.go).
var raceEnabled bool

// TestEncodeBatchSteadyStateAllocs: once dst has grown to the batch, an
// encode into it allocates nothing — the dictionary's table is pooled.
func TestEncodeBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled encoders on purpose")
	}
	in := opMixBatch()
	dst := EncodeBatch(nil, in)
	allocs := testing.AllocsPerRun(20, func() {
		dst = EncodeBatch(dst[:0], in)
	})
	if allocs != 0 {
		t.Fatalf("steady-state EncodeBatch allocates %.0f times per call", allocs)
	}
}

// FuzzEventCodec feeds arbitrary bytes to DecodeBatch (must error, never
// panic, on garbage) and checks that every frame EncodeBatch produces from
// decoded events round-trips exactly.
func FuzzEventCodec(f *testing.F) {
	f.Add(EncodeBatch(nil, codecSample()))
	f.Add(EncodeBatch(nil, churnBatch()))
	f.Add(EncodeBatch(nil, overlongBatch(strings.Repeat("p", 0xFFFF+16))))
	f.Add(EncodeBatch(nil, nil))
	f.Add([]byte("DIOE"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := DecodeBatch(data, nil)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decode error %v is not ErrBadFrame", err)
			}
			return
		}
		// Whatever decoded must re-encode and decode to the same events.
		frame := EncodeBatch(nil, out)
		back, err := DecodeBatch(frame, nil)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		if len(back) != len(out) {
			t.Fatalf("re-decode count %d, want %d", len(back), len(out))
		}
		for i := range out {
			if back[i] != out[i] {
				t.Fatalf("event %d not stable across re-encode:\n got %+v\nwant %+v", i, back[i], out[i])
			}
		}
	})
}

// opMixBatch is a tracer-shaped 512-event batch: one thread cycling through
// openat, write, pread64, lseek, read and close over 64 files.
func opMixBatch() []Event {
	syscalls := []string{"openat", "write", "pread64", "lseek", "read", "close"}
	in := make([]Event, 512)
	for i := range in {
		f := (i * 7 / 6) % 64
		path := fmt.Sprintf("/bench/f%02d.dat", f)
		sys := syscalls[i%len(syscalls)]
		e := Event{Session: "ingest", Syscall: sys, Class: "data",
			ProcName: "bench", ThreadName: "bench-0", PID: 4242, TID: 4243,
			FD: 3 + f%8, Count: 4096, RetVal: 4096,
			TimeEnterNS: 1_697_000_000_000_000_000 + int64(i)*2100, FileType: "regular",
			FileTag:   FileTag{Dev: 2049, Ino: uint64(1000 + f), BirthNS: 1_697_000_000_000_000_000 - int64(f)},
			Offset:    int64(i%16) * 4096,
			HasOffset: true}
		e.TimeExitNS = e.TimeEnterNS + 800 + int64(i%5)*37
		if sys == "openat" {
			e.ArgPath, e.KernelPath, e.Class = path, path, "metadata"
		}
		in[i] = e
	}
	return in
}

// BenchmarkEventCodec prices one 512-event op-mix batch through EncodeBatch
// and DecodeBatch, reporting the frame's bytes per event.
func BenchmarkEventCodec(b *testing.B) {
	in := opMixBatch()
	frame := EncodeBatch(nil, in)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frame = EncodeBatch(frame[:0], in)
		}
		b.ReportMetric(float64(len(frame))/float64(len(in)), "B/event")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(in)), "ns/event")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		dst := make([]Event, 0, len(in))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeBatch(frame, dst[:0]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(in)), "ns/event")
	})
}
