package resilience

import (
	"sync"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// spillBatch is one parked bulk request.
type spillBatch struct {
	index  string
	events []event.Event
}

// spillQueue is a bounded FIFO of batches that could not be shipped, bounded
// by total event count. When a push would exceed the bound, the oldest
// batches are evicted and their events counted as dropped — newest data wins,
// mirroring the ring buffers' bounded-loss strategy one level up the stack.
type spillQueue struct {
	capEvents int

	mu      sync.Mutex
	batches []spillBatch
	head    int
	events  int
}

func newSpillQueue(capEvents int) *spillQueue {
	return &spillQueue{capEvents: capEvents}
}

// push parks a copy of b's payload (callers recycle their batch buffers). It
// returns whether the batch was queued and how many older events were
// evicted to make room; a batch larger than the whole queue capacity is
// rejected outright (queued=false, evicted=0) and the caller accounts it.
func (q *spillQueue) push(b spillBatch) (queued bool, evicted int) {
	n := len(b.events)
	if n > q.capEvents {
		return false, 0
	}
	b.events = append([]event.Event(nil), b.events...)
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.events+n > q.capEvents {
		old := q.popLocked()
		evicted += len(old.events)
	}
	q.batches = append(q.batches, b)
	q.events += n
	return true, evicted
}

// pop removes and returns the oldest batch; ok is false when empty.
func (q *spillQueue) pop() (spillBatch, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head >= len(q.batches) {
		return spillBatch{}, false
	}
	return q.popLocked(), true
}

func (q *spillQueue) popLocked() spillBatch {
	b := q.batches[q.head]
	q.batches[q.head] = spillBatch{}
	q.head++
	q.events -= len(b.events)
	if q.head == len(q.batches) {
		q.batches = q.batches[:0]
		q.head = 0
	} else if q.head > 64 && q.head*2 > len(q.batches) {
		q.batches = append(q.batches[:0], q.batches[q.head:]...)
		q.head = 0
	}
	return b
}

// unshift puts a popped batch back at the front, preserving replay order
// after a failed replay attempt. Capacity is not re-checked: the batch was
// already accounted for when first pushed.
func (q *spillQueue) unshift(b spillBatch) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head > 0 {
		q.head--
		q.batches[q.head] = b
	} else {
		q.batches = append([]spillBatch{b}, q.batches...)
	}
	q.events += len(b.events)
}

// clear empties the queue and returns how many events it held.
func (q *spillQueue) clear() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := q.events
	q.batches, q.head, q.events = nil, 0, 0
	return n
}

// size returns the queued event count.
func (q *spillQueue) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.events
}
