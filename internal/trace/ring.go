package trace

import (
	"sync/atomic"

	"gstm/internal/tts"
)

// EventKind distinguishes the two trace event types when they are
// flattened into an Event record.
type EventKind uint8

// Event kinds.
const (
	// EventCommit is an OnCommit event; Inst is the committing
	// attempt's instance ID.
	EventCommit EventKind = iota
	// EventAbort is an OnAbort event; Inst is the killer's instance ID
	// (0 when unknown).
	EventAbort
)

// Event is one commit/abort event flattened into a fixed-size
// 16-byte record: the Collector's log entry and the online learner's
// ring slot. It carries no order stamp; its place in a slice or its
// ring position is its order.
type Event struct {
	Inst uint64
	Pair tts.Pair
	Kind EventKind
}

// ringSlot pairs one event with its publication sequence (the Vyukov
// bounded-queue protocol): seq == pos means the slot is free for the
// producer claiming position pos; seq == pos+1 means the event at pos
// is published and readable.
type ringSlot struct {
	seq atomic.Uint64
	ev  Event
}

// EventRing is a bounded lock-free queue of trace events (Dmitry
// Vyukov's bounded MPMC design, used here with a single consumer).
// Producers never block and never allocate: when the ring is full,
// Enqueue fails and the event is dropped — the online learner prefers
// losing a sample to stalling a commit. The drop count is the
// caller's to keep (it knows whether a drop was injected or real).
//
// The head CAS puts every successful claim in one total order, and
// Enqueue returns the position it claimed: positions are consecutive
// from 0, a failed Enqueue claims none, and Dequeue hands them out in
// position order, stopping at the first claimed slot not yet
// published. The consumer therefore always sees a gap-free prefix of
// the claim order.
type EventRing struct {
	slots []ringSlot
	mask  uint64
	head  atomic.Uint64 // next position to claim for enqueue
	tail  atomic.Uint64 // next position to read
}

// NewEventRing returns a ring holding at least capacity events
// (rounded up to a power of two, minimum 2).
func NewEventRing(capacity int) *EventRing {
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &EventRing{slots: make([]ringSlot, n), mask: uint64(n - 1)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// Cap returns the ring's capacity.
func (r *EventRing) Cap() int { return len(r.slots) }

// Claimed returns how many positions producers have claimed so far:
// the position the next successful Enqueue will return.
func (r *EventRing) Claimed() uint64 { return r.head.Load() }

// Enqueue publishes ev at the position it returns, or returns false
// (without blocking or spinning unboundedly, and claiming no position)
// when the ring is full.
func (r *EventRing) Enqueue(ev Event) (uint64, bool) {
	for {
		pos := r.head.Load()
		slot := &r.slots[pos&r.mask]
		seq := slot.seq.Load()
		switch {
		case seq == pos:
			// Slot free at our position: claim it.
			if r.head.CompareAndSwap(pos, pos+1) {
				slot.ev = ev
				slot.seq.Store(pos + 1)
				return pos, true
			}
		case seq < pos:
			// The consumer has not freed this slot yet: full.
			return 0, false
		}
		// seq > pos: another producer claimed pos; retry with a fresh
		// head read.
	}
}

// Dequeue pops the oldest event. Single-consumer only: the online
// learner's epoch drainer is the one reader.
func (r *EventRing) Dequeue() (Event, bool) {
	pos := r.tail.Load()
	slot := &r.slots[pos&r.mask]
	seq := slot.seq.Load()
	if seq < pos+1 {
		return Event{}, false // nothing published at tail yet
	}
	ev := slot.ev
	slot.seq.Store(pos + uint64(len(r.slots)))
	r.tail.Store(pos + 1)
	return ev, true
}
