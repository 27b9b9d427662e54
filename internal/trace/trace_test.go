package trace

import (
	"sync"
	"testing"

	"gstm/internal/tts"
)

func TestNopTracerIsHarmless(t *testing.T) {
	var n Nop
	n.OnCommit(1, tts.Pair{})
	n.OnAbort(tts.Pair{}, 0)
}

// sequencers are the two entry points that group events into the
// transaction sequence: a Collector fed through the Tracer hooks, and
// Build over a recorded slice. Every TestSequence* case runs on both.
var sequencers = []struct {
	name string
	seq  func([]Event) ([]tts.State, int)
}{
	{"Collector", func(evs []Event) ([]tts.State, int) {
		c := NewCollector()
		for _, ev := range evs {
			if ev.Kind == EventCommit {
				c.OnCommit(ev.Inst, ev.Pair)
			} else {
				c.OnAbort(ev.Pair, ev.Inst)
			}
		}
		return c.Sequence()
	}},
	{"Build", func(evs []Event) ([]tts.State, int) { return Build(evs) }},
}

func commit(inst uint64, p tts.Pair) Event  { return Event{Inst: inst, Pair: p, Kind: EventCommit} }
func abort(p tts.Pair, killer uint64) Event { return Event{Inst: killer, Pair: p, Kind: EventAbort} }

func TestSequenceGroupsAbortsUnderKiller(t *testing.T) {
	evs := []Event{
		// Instance 10: thread 7 commits tx b, killing (a,6).
		abort(tts.Pair{Tx: 0, Thread: 6}, 10),
		commit(10, tts.Pair{Tx: 1, Thread: 7}),
		// Instance 11: thread 0 commits tx b with no victims.
		commit(11, tts.Pair{Tx: 1, Thread: 0}),
	}
	for _, sq := range sequencers {
		t.Run(sq.name, func(t *testing.T) {
			seq, unattr := sq.seq(evs)
			if unattr != 0 {
				t.Fatalf("unattributed = %d", unattr)
			}
			if len(seq) != 2 {
				t.Fatalf("len(seq) = %d", len(seq))
			}
			want0 := tts.State{Commit: tts.Pair{Tx: 1, Thread: 7}, Aborts: []tts.Pair{{Tx: 0, Thread: 6}}}
			if !seq[0].Equal(want0) {
				t.Errorf("seq[0] = %v, want %v", seq[0], want0)
			}
			if len(seq[1].Aborts) != 0 {
				t.Errorf("seq[1] should be a singleton commit, got %v", seq[1])
			}
		})
	}
}

// TestSequenceAbortBeforeKillerCommit: an abort recorded before its
// killer's commit, with another commit in between, attaches to its
// killer's state, not to the commit nearest it.
func TestSequenceAbortBeforeKillerCommit(t *testing.T) {
	evs := []Event{
		abort(tts.Pair{Tx: 2, Thread: 2}, 21),
		commit(20, tts.Pair{Tx: 0, Thread: 0}),
		commit(21, tts.Pair{Tx: 1, Thread: 1}),
	}
	for _, sq := range sequencers {
		t.Run(sq.name, func(t *testing.T) {
			seq, unattr := sq.seq(evs)
			if unattr != 0 || len(seq) != 2 {
				t.Fatalf("seq = %v, unattributed = %d", seq, unattr)
			}
			if len(seq[0].Aborts) != 0 {
				t.Errorf("abort attached to the commit before its killer's: %v", seq[0])
			}
			want1 := tts.State{Commit: tts.Pair{Tx: 1, Thread: 1}, Aborts: []tts.Pair{{Tx: 2, Thread: 2}}}
			if !seq[1].Equal(want1) {
				t.Errorf("seq[1] = %v, want %v", seq[1], want1)
			}
		})
	}
}

func TestSequenceAbortOrderIndependent(t *testing.T) {
	events := func(abortFirst bool) []Event {
		a, b := abort(tts.Pair{Tx: 0, Thread: 1}, 5), abort(tts.Pair{Tx: 2, Thread: 3}, 5)
		if !abortFirst {
			a, b = b, a
		}
		return []Event{a, b, commit(5, tts.Pair{Tx: 1, Thread: 0})}
	}
	for _, sq := range sequencers {
		t.Run(sq.name, func(t *testing.T) {
			key := func(abortFirst bool) string {
				seq, _ := sq.seq(events(abortFirst))
				return seq[0].Key()
			}
			if key(true) != key(false) {
				t.Error("abort arrival order changed the state key")
			}
		})
	}
}

func TestSequenceUnattributedAborts(t *testing.T) {
	evs := []Event{
		commit(1, tts.Pair{Tx: 0, Thread: 0}),
		abort(tts.Pair{Tx: 1, Thread: 1}, 99), // killer never commits
		abort(tts.Pair{Tx: 1, Thread: 2}, 0),  // unknown killer
	}
	for _, sq := range sequencers {
		t.Run(sq.name, func(t *testing.T) {
			seq, unattr := sq.seq(evs)
			if unattr != 2 {
				t.Errorf("unattributed = %d, want 2", unattr)
			}
			if len(seq) != 1 || len(seq[0].Aborts) != 0 {
				t.Errorf("seq = %v", seq)
			}
		})
	}
}

func TestSequenceKillerInstanceZeroNeverMatches(t *testing.T) {
	// Even if a commit somehow used instance 0, aborts with killer 0
	// must stay unattributed ("unknown"), never grouped.
	evs := []Event{
		commit(0, tts.Pair{Tx: 0, Thread: 0}),
		abort(tts.Pair{Tx: 1, Thread: 1}, 0),
	}
	for _, sq := range sequencers {
		t.Run(sq.name, func(t *testing.T) {
			seq, unattr := sq.seq(evs)
			if unattr != 1 {
				t.Errorf("unattributed = %d, want 1", unattr)
			}
			if len(seq[0].Aborts) != 0 {
				t.Errorf("abort wrongly attributed: %v", seq[0])
			}
		})
	}
}

func TestCountsAndReset(t *testing.T) {
	c := NewCollector()
	c.OnCommit(1, tts.Pair{})
	c.OnCommit(2, tts.Pair{})
	c.OnAbort(tts.Pair{}, 1)
	if cm, ab := c.Counts(); cm != 2 || ab != 1 {
		t.Errorf("Counts = %d,%d", cm, ab)
	}
	c.Reset()
	if cm, ab := c.Counts(); cm != 0 || ab != 0 {
		t.Errorf("after Reset Counts = %d,%d", cm, ab)
	}
	if seq, _ := c.Sequence(); len(seq) != 0 {
		t.Errorf("after Reset Sequence = %v", seq)
	}
}

func TestAbortCountByThread(t *testing.T) {
	c := NewCollector()
	c.OnAbort(tts.Pair{Tx: 0, Thread: 3}, 0)
	c.OnAbort(tts.Pair{Tx: 1, Thread: 3}, 0)
	c.OnAbort(tts.Pair{Tx: 0, Thread: 5}, 0)
	m := c.AbortCountByThread()
	if m[3] != 2 || m[5] != 1 || len(m) != 2 {
		t.Errorf("AbortCountByThread = %v", m)
	}
}

func TestCollectorConcurrentSafety(t *testing.T) {
	c := NewCollector()
	const workers = 8
	const per = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				inst := uint64(w*per + i + 1)
				c.OnCommit(inst, tts.Pair{Tx: uint16(i % 4), Thread: uint16(w)})
				c.OnAbort(tts.Pair{Tx: uint16(i % 4), Thread: uint16(w)}, inst)
			}
		}(w)
	}
	wg.Wait()
	cm, ab := c.Counts()
	if cm != workers*per || ab != workers*per {
		t.Errorf("Counts = %d,%d", cm, ab)
	}
	seq, unattr := c.Sequence()
	if len(seq) != workers*per {
		t.Errorf("len(seq) = %d", len(seq))
	}
	// Every abort named an instance that committed, so all attribute.
	if unattr != 0 {
		t.Errorf("unattributed = %d", unattr)
	}
}

func TestKeys(t *testing.T) {
	seq := []tts.State{
		{Commit: tts.Pair{Tx: 0, Thread: 0}},
		{Commit: tts.Pair{Tx: 1, Thread: 1}, Aborts: []tts.Pair{{Tx: 0, Thread: 2}}},
	}
	ks := Keys(seq)
	if len(ks) != 2 {
		t.Fatalf("len = %d", len(ks))
	}
	if ks[0] != seq[0].Key() || ks[1] != seq[1].Key() {
		t.Error("Keys mismatch")
	}
}
