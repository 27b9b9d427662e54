package trace

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"gstm/internal/tts"
)

// drain dequeues every readable event.
func drain(r *EventRing, dst []Event) []Event {
	for {
		ev, ok := r.Dequeue()
		if !ok {
			return dst
		}
		dst = append(dst, ev)
	}
}

func TestEventRingFIFO(t *testing.T) {
	r := NewEventRing(8)
	for i := 0; i < 5; i++ {
		if pos, ok := r.Enqueue(Event{Inst: uint64(i)}); !ok || pos != uint64(i) {
			t.Fatalf("enqueue %d = (%d, %v) on a non-full ring, want position %d", i, pos, ok, i)
		}
	}
	for i := 0; i < 5; i++ {
		ev, ok := r.Dequeue()
		if !ok || ev.Inst != uint64(i) {
			t.Fatalf("dequeue %d = (%+v, %v), want inst %d", i, ev, ok, i)
		}
	}
	if _, ok := r.Dequeue(); ok {
		t.Error("dequeue on an empty ring succeeded")
	}
}

func TestEventRingFullDrops(t *testing.T) {
	r := NewEventRing(4)
	if r.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", r.Cap())
	}
	for i := 0; i < 4; i++ {
		if _, ok := r.Enqueue(Event{Inst: uint64(i)}); !ok {
			t.Fatalf("enqueue %d failed before the ring filled", i)
		}
	}
	if _, ok := r.Enqueue(Event{Inst: 99}); ok {
		t.Error("enqueue on a full ring succeeded")
	}
	if got := r.Claimed(); got != 4 {
		t.Errorf("a full ring's failed enqueue claimed a position: Claimed = %d, want 4", got)
	}
	// Free one slot; the ring must accept exactly one more, at the next
	// position.
	if _, ok := r.Dequeue(); !ok {
		t.Fatal("dequeue on a full ring failed")
	}
	if pos, ok := r.Enqueue(Event{Inst: 4}); !ok || pos != 4 {
		t.Errorf("enqueue after a dequeue = (%d, %v), want position 4", pos, ok)
	}
	got := drain(r, nil)
	want := []uint64{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("drained %d events, want %d", len(got), len(want))
	}
	for i, ev := range got {
		if ev.Inst != want[i] {
			t.Errorf("drained[%d].Inst = %d, want %d", i, ev.Inst, want[i])
		}
	}
}

// TestEventIs16Bytes pins the record size: a Collector entry and a ring
// slot's payload are one instance word and one packed pair.
func TestEventIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 16 {
		t.Errorf("sizeof(Event) = %d, want 16", n)
	}
}

func TestEventRingCapacityRounding(t *testing.T) {
	for capIn, want := range map[int]int{0: 2, 1: 2, 2: 2, 3: 4, 5: 8, 8: 8, 1000: 1024} {
		if got := NewEventRing(capIn).Cap(); got != want {
			t.Errorf("NewEventRing(%d).Cap() = %d, want %d", capIn, got, want)
		}
	}
}

// TestEventRingConcurrentProducers hammers the ring with several
// producers and one consumer draining concurrently (the online
// learner's shape) and checks the claim order: the positions that come
// out are consecutive from 0 with no gap and no duplicate, each event
// comes out at the position its Enqueue returned, a failed Enqueue (a
// full ring) claims no position, and each producer's events keep their
// order. Inst is the unique tag. Run under -race in check.sh.
func TestEventRingConcurrentProducers(t *testing.T) {
	const producers = 4
	const perProducer = 2000
	r := NewEventRing(64)
	var dropped atomic.Uint64
	var wg sync.WaitGroup
	done := make(chan struct{})
	// claimedAt[p][i] is the position producer p's i-th event was given.
	var claimedAt [producers][perProducer]uint64
	var accepted [producers][perProducer]bool

	var got []Event
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		// Start draining only once the ring has filled and refused an
		// event, so the full-ring branch is always exercised.
		for dropped.Load() == 0 {
			select {
			case <-done:
				got = drain(r, got)
				return
			default:
				runtime.Gosched()
			}
		}
		for {
			got = drain(r, got)
			select {
			case <-done:
				got = drain(r, got)
				return
			default:
			}
		}
	}()

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				ev := Event{
					Inst: uint64(p)<<32 | uint64(i),
					Pair: tts.Pair{Tx: uint16(p), Thread: uint16(i)},
				}
				pos, ok := r.Enqueue(ev)
				if !ok {
					dropped.Add(1)
					continue
				}
				claimedAt[p][i], accepted[p][i] = pos, true
			}
		}(p)
	}
	wg.Wait()
	close(done)
	consumer.Wait()

	if uint64(len(got))+dropped.Load() != producers*perProducer {
		t.Fatalf("events: delivered %d + dropped %d != produced %d",
			len(got), dropped.Load(), producers*perProducer)
	}
	if dropped.Load() == 0 {
		t.Error("the ring never filled: the full-ring branch went untested")
	}
	if c := r.Claimed(); c != uint64(len(got)) {
		t.Fatalf("Claimed = %d, delivered %d: a failed enqueue claimed a position", c, len(got))
	}
	// The i-th event out is the one whose Enqueue returned position i:
	// positions come out consecutive, gap-free and each exactly once.
	seen := make(map[uint64]bool, len(got))
	last := make(map[uint16]uint64)
	for pos, ev := range got {
		if seen[ev.Inst] {
			t.Fatalf("inst %#x delivered twice", ev.Inst)
		}
		seen[ev.Inst] = true
		p, i := ev.Pair.Tx, ev.Pair.Thread
		if ev.Inst != uint64(p)<<32|uint64(i) {
			t.Fatalf("event corrupted: %+v", ev)
		}
		if !accepted[p][i] || claimedAt[p][i] != uint64(pos) {
			t.Fatalf("inst %#x came out at position %d, its Enqueue returned (%d, %v)",
				ev.Inst, pos, claimedAt[p][i], accepted[p][i])
		}
		// Per-producer order is preserved modulo drops.
		if prev, ok := last[p]; ok && ev.Inst <= prev {
			t.Fatalf("producer %d order broken: inst %#x after %#x", p, ev.Inst, prev)
		}
		last[p] = ev.Inst
	}
}
