package guide

import (
	"sync"
	"testing"
	"time"

	"gstm/internal/model"
	"gstm/internal/trace"
	"gstm/internal/tts"
)

// twoStateModel builds a model where state {<a0>} transitions only to
// {<b1>} (high probability) and {<c2>} (low probability).
//
//	a0 → b1 : 90
//	a0 → c2 : 1  (well below Pmax/4)
//
// {<b1>} has no outbound edge, so under {<a0>} pair (c,2) is held, not
// released as futile: thread 1's commit would land on a state with no
// guidance, which admits everyone. The tests that reach the escape with
// it simply never let that commit come.
func twoStateModel() *model.TSA {
	a0 := tts.State{Commit: tts.Pair{Tx: 0, Thread: 0}}
	b1 := tts.State{Commit: tts.Pair{Tx: 1, Thread: 1}}
	c2 := tts.State{Commit: tts.Pair{Tx: 2, Thread: 2}}
	var seq []tts.State
	for i := 0; i < 90; i++ {
		seq = append(seq, a0, b1)
	}
	seq = append(seq, a0, c2)
	// Two-element runs, so the only edges are a0→b1 x90 and a0→c2 x1.
	runs := make([][]tts.State, 0, 91)
	for i := 0; i+1 < len(seq); i += 2 {
		runs = append(runs, seq[i:i+2])
	}
	return model.Build(4, runs...).AssumeAllConflict()
}

func TestAdmitUnknownStateAlwaysPasses(t *testing.T) {
	c := New(twoStateModel(), Options{K: 4})
	// No commits yet: current state unknown.
	done := make(chan struct{})
	go func() {
		c.Admit(tts.Pair{Tx: 9, Thread: 9})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Admit blocked with no current state")
	}
	st := c.Stats()
	if st.UnknownPasses != 1 || st.ImmediateAdmits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAdmitHighProbPairPassesImmediately(t *testing.T) {
	c := New(twoStateModel(), Options{K: 4})
	// Move to state {<a0>}; its high-prob destination is {<b1>}, so
	// pair (b,1) is admissible.
	c.OnCommit(1, tts.Pair{Tx: 0, Thread: 0})
	start := time.Now()
	c.Admit(tts.Pair{Tx: 1, Thread: 1})
	if time.Since(start) > 100*time.Millisecond {
		t.Error("high-probability pair was held")
	}
	st := c.Stats()
	if st.ImmediateAdmits != 1 || st.Escapes != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAdmitLowProbPairHeldThenEscapes(t *testing.T) {
	c := New(twoStateModel(), Options{K: 5})
	c.OnCommit(1, tts.Pair{Tx: 0, Thread: 0})
	// (c,2) is only in the low-probability destination: must be held,
	// then escape after K re-checks.
	c.Admit(tts.Pair{Tx: 2, Thread: 2})
	st := c.Stats()
	if st.Escapes != 1 {
		t.Errorf("expected 1 escape, stats = %+v", st)
	}
	if st.Holds != 1 {
		t.Errorf("expected 1 hold, stats = %+v", st)
	}
}

func TestAdmitReleasedWhenStateChanges(t *testing.T) {
	// K is effectively infinite so the hold can only end via a state
	// change, never via the progress escape.
	c := New(twoStateModel(), Options{K: 1 << 26})
	c.OnCommit(1, tts.Pair{Tx: 0, Thread: 0})
	released := make(chan struct{})
	go func() {
		c.Admit(tts.Pair{Tx: 2, Thread: 2}) // inadmissible in {<a0>}
		close(released)
	}()
	// Give the admit goroutine time to start holding, then move the
	// automaton to an unknown state, which releases everyone.
	time.Sleep(2 * time.Millisecond)
	c.OnCommit(2, tts.Pair{Tx: 9, Thread: 3}) // unknown state
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("held transaction not released on state change")
	}
	if st := c.Stats(); st.Escapes != 0 {
		t.Errorf("release should not count as escape: %+v", st)
	}
}

func TestOnAbortExtendsCurrentState(t *testing.T) {
	// Build a model in which the state {<a0 aborted by b1>} leads to
	// {<c2>}, but plain {<b1>} leads elsewhere. After OnCommit(b1) +
	// OnAbort(a0, same instance), pair (c,2) must become admissible.
	withAbort := tts.State{
		Commit: tts.Pair{Tx: 1, Thread: 1},
		Aborts: []tts.Pair{{Tx: 0, Thread: 0}},
	}
	c2 := tts.State{Commit: tts.Pair{Tx: 2, Thread: 2}}
	d3 := tts.State{Commit: tts.Pair{Tx: 3, Thread: 3}}
	plain := tts.State{Commit: tts.Pair{Tx: 1, Thread: 1}}
	var runs [][]tts.State
	for i := 0; i < 20; i++ {
		runs = append(runs, []tts.State{withAbort, c2})
		runs = append(runs, []tts.State{plain, d3})
	}
	m := model.Build(4, runs...).AssumeAllConflict()
	c := New(m, Options{K: 3})

	c.OnCommit(42, tts.Pair{Tx: 1, Thread: 1})
	// In state {<b1>}: destination {<d3>} → (c,2) is inadmissible.
	c.Admit(tts.Pair{Tx: 2, Thread: 2})
	if st := c.Stats(); st.Escapes != 1 {
		t.Fatalf("expected escape before abort event, stats = %+v", st)
	}
	// The commit's victim arrives: state becomes {<a0>,<b1>} whose
	// destination set contains (c,2).
	c.OnAbort(tts.Pair{Tx: 0, Thread: 0}, 42)
	c.Admit(tts.Pair{Tx: 2, Thread: 2})
	st := c.Stats()
	if st.Escapes != 1 {
		t.Errorf("second admit should pass without escape: %+v", st)
	}
	if st.ImmediateAdmits != 1 {
		t.Errorf("second admit should be immediate: %+v", st)
	}
}

func TestOnAbortIgnoresStaleKiller(t *testing.T) {
	c := New(twoStateModel(), Options{})
	c.OnCommit(7, tts.Pair{Tx: 0, Thread: 0})
	before := c.cur.Load()
	c.OnAbort(tts.Pair{Tx: 1, Thread: 1}, 99) // not the current commit
	c.OnAbort(tts.Pair{Tx: 1, Thread: 1}, 0)  // unknown killer
	after := c.cur.Load()
	if before != after {
		t.Error("stale/unknown killers must not change the state")
	}
}

func TestResetClearsState(t *testing.T) {
	c := New(twoStateModel(), Options{K: 2})
	c.OnCommit(1, tts.Pair{Tx: 0, Thread: 0})
	c.Reset()
	c.Admit(tts.Pair{Tx: 2, Thread: 2}) // would be held in {<a0>}
	if st := c.Stats(); st.Escapes != 0 || st.UnknownPasses != 1 {
		t.Errorf("after Reset: %+v", st)
	}
}

func TestControllerConcurrentSafety(t *testing.T) {
	c := New(twoStateModel(), Options{K: 2})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				inst := uint64(w*1000 + i + 1)
				c.OnCommit(inst, tts.Pair{Tx: uint16(i % 3), Thread: uint16(w)})
				c.OnAbort(tts.Pair{Tx: uint16(i % 3), Thread: uint16(w)}, inst)
				c.Admit(tts.Pair{Tx: uint16(i % 3), Thread: uint16(w)})
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Admits != 8*200 {
		t.Errorf("admits = %d", st.Admits)
	}
}

func TestMultiTracerFeedsControllerAndCollector(t *testing.T) {
	c := New(twoStateModel(), Options{})
	col := trace.NewCollector()
	m := trace.Multi(c, col)
	m.OnCommit(5, tts.Pair{Tx: 0, Thread: 0})
	m.OnAbort(tts.Pair{Tx: 1, Thread: 2}, 5)
	if cm, ab := col.Counts(); cm != 1 || ab != 1 {
		t.Errorf("collector counts = %d,%d", cm, ab)
	}
	snap := c.cur.Load()
	if snap == nil || len(snap.state.Aborts) != 1 {
		t.Error("controller did not track the event stream")
	}
}

func TestNewSkipsTerminalStates(t *testing.T) {
	// A model whose only state has no outbound edges yields a
	// controller with an empty allowed map: everything passes as
	// unknown.
	m := model.Build(1, []tts.State{{Commit: tts.Pair{Tx: 0, Thread: 0}}})
	c := New(m, Options{K: 2})
	c.OnCommit(1, tts.Pair{Tx: 0, Thread: 0})
	c.Admit(tts.Pair{Tx: 5, Thread: 5})
	if st := c.Stats(); st.Escapes != 0 {
		t.Errorf("terminal-state model must not hold: %+v", st)
	}
}

func TestDefaultOptions(t *testing.T) {
	c := New(twoStateModel(), Options{})
	if c.k != DefaultK {
		t.Errorf("defaults not applied: k=%d", c.k)
	}
}
