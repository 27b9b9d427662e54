package guide

import (
	"sync"
	"testing"

	"gstm/internal/model"
	"gstm/internal/tts"
)

// alternation is what two threads of equal pace on disjoint data teach a
// profile: each commits after the other, nobody ever aborts. The paper's
// rule alone holds a thread's own pair until the other thread commits; with
// no conflict evidence the tables hold nobody.
func alternation() *model.TSA {
	a0, a1 := commitOnly(0, 0), commitOnly(0, 1)
	return bareEdges(2, edge{a0, a1, 90}, edge{a1, a0, 90}, edge{a0, a0, 10}, edge{a1, a1, 10})
}

// TestOrderWithoutConflictIsNotHeld: the same graph holds with evidence
// and is idle without.
func TestOrderWithoutConflictIsNotHeld(t *testing.T) {
	if plan := ExplainHolds(alternation().AssumeAllConflict(), model.DefaultTfactor); len(plan) != 2 {
		t.Fatalf("setup: with evidence %d states have verdicts, want both (the rule holds a thread's own pair)", len(plan))
	}
	if plan := ExplainHolds(alternation(), model.DefaultTfactor); len(plan) != 0 {
		t.Errorf("no abort in the model, yet verdicts: %v", plan)
	}
	for name, c := range map[string]*Controller{
		"no model": New(nil, Options{}),
		"holding":  New(alternation().AssumeAllConflict(), Options{}),
	} {
		if c.Stats().Idle {
			t.Errorf("%s: idle; only compiled tables that hold nobody are", name)
		}
	}
}

// TestIdleGateSharesNothing drives an idle controller from two goroutines
// (run under -race): every call is counted and feeds the health window,
// nobody is held, nothing is unknown, and the current state is never
// written.
func TestIdleGateSharesNothing(t *testing.T) {
	const perG = 5000
	c := New(alternation(), Options{})
	if !c.Stats().Idle {
		t.Fatal("setup: the alternation model's tables are not idle")
	}
	var wg sync.WaitGroup
	for th := uint16(0); th < 2; th++ {
		wg.Add(1)
		go func(p tts.Pair) {
			defer wg.Done()
			for i := uint64(1); i <= perG; i++ {
				c.Admit(p)
				inst := uint64(p.Thread)<<32 | i
				c.OnCommit(inst, p)
				c.OnAbort(tts.Pair{Thread: 1 - p.Thread}, inst)
			}
		}(tts.Pair{Thread: th})
	}
	wg.Wait()
	st := c.Stats()
	if st.Admits != 2*perG || st.ImmediateAdmits != st.Admits || st.Holds != 0 || st.UnknownPasses != 0 || st.FutileAdmits != 0 {
		t.Errorf("stats = %+v; want %d admits, all immediate, none unknown", st, 2*perG)
	}
	if c.cur.Load() != nil {
		t.Error("an idle gate wrote the current state")
	}
	if fed := c.health.admits.Load(); fed+2*c.health.batch < 2*perG || fed > 2*perG {
		t.Errorf("health window fed %d admits of %d", fed, 2*perG)
	}
	if st.Level != LevelGuided || st.Degradations != 0 {
		t.Errorf("an idle gate moved the ladder: %+v", st)
	}
}

// TestFutileOnlyModelIsIdle: a model whose every withheld verdict is futile
// admits everyone, so its gate is idle (run under -race): the futile
// verdicts are admitted without tracking, so none is counted, and the
// current state is never written.
func TestFutileOnlyModelIsIdle(t *testing.T) {
	const perG = 5000
	m := edges(2, quakeCore()...)
	futile := 0
	for _, verdicts := range ExplainHolds(m, model.DefaultTfactor) {
		for _, w := range verdicts {
			if len(w) > 0 {
				t.Fatal("setup: the SynQuake core holds a pair")
			}
			futile++
		}
	}
	c := New(m, Options{})
	if futile == 0 || !c.Stats().Idle {
		t.Fatalf("setup: %d futile verdicts, idle=%v; want some, and an idle gate", futile, c.Stats().Idle)
	}
	var wg sync.WaitGroup
	for th := uint16(0); th < 2; th++ {
		wg.Add(1)
		go func(th uint16) {
			defer wg.Done()
			for i := uint64(1); i <= perG; i++ {
				tx := uint16(i % 3)
				c.Admit(tts.Pair{Tx: tx, Thread: th})
				c.OnCommit(uint64(th)<<32|i, tts.Pair{Tx: tx, Thread: th})
			}
		}(th)
	}
	wg.Wait()
	st := c.Stats()
	if st.Admits != 2*perG || st.ImmediateAdmits != st.Admits || st.FutileAdmits != 0 || st.Holds != 0 || st.UnknownPasses != 0 {
		t.Errorf("stats = %+v; want %d admits, all immediate, none futile or unknown", st, 2*perG)
	}
	if c.cur.Load() != nil {
		t.Error("an idle gate wrote the current state")
	}
}

// TestSwapBetweenIdleAndHolding: a swap re-reads idleness off the new
// model, and tables that start tracking state start from no state, as
// after Reset: unknown until the next commit, then they hold.
func TestSwapBetweenIdleAndHolding(t *testing.T) {
	a0, a1 := tts.Pair{Thread: 0}, tts.Pair{Thread: 1}
	c := New(alternation(), Options{K: 2, HealthWindow: -1})
	c.OnCommit(1, a0)
	if ok, unknown := c.WouldAdmit(a0); !ok || unknown {
		t.Fatalf("idle: ok=%v unknown=%v, want a plain admit", ok, unknown)
	}

	c.SwapModel(alternation().AssumeAllConflict())
	if st := c.Stats(); st.Idle || st.ModelSwaps != 1 {
		t.Fatalf("after swapping a holding model in: %+v", st)
	}
	if ok, unknown := c.WouldAdmit(a0); !ok || !unknown {
		t.Errorf("before the next commit: ok=%v unknown=%v, want an unknown state", ok, unknown)
	}
	yields := 0
	c.yield = func() {
		if yields++; yields == 1 {
			c.OnCommit(3, a1)
		}
	}
	c.OnCommit(2, a0)
	c.Admit(a0)
	if st := c.Stats(); st.Holds != 1 || st.Escapes != 0 {
		t.Errorf("stats = %+v, want (a,0) held under {a0} until thread 1 commits", st)
	}

	c.SwapModel(alternation())
	if !c.Stats().Idle || c.cur.Load() != nil {
		t.Errorf("after swapping back: idle=%v, current state %v; want idle and none", c.Stats().Idle, c.cur.Load())
	}
	c.OnCommit(4, a1)
	c.Admit(a1)
	if st := c.Stats(); st.Holds != 1 || st.UnknownPasses != 0 || st.Admits != 2 {
		t.Errorf("idle again: %+v", st)
	}
}

// TestControlPlaneOnIdleGate: Reset, Quarantine and Rearm act on an idle
// controller as on any other, and every admit stays counted.
func TestControlPlaneOnIdleGate(t *testing.T) {
	p := tts.Pair{Thread: 1}
	c := New(alternation(), Options{})
	c.Admit(p)
	c.Quarantine()
	c.Admit(p)
	if st := c.Stats(); st.Level != LevelPassthrough || st.PassthroughAdmits != 1 || !st.Quarantined {
		t.Errorf("quarantined: %+v", st)
	}
	c.Rearm()
	c.Admit(p)
	c.Quarantine()
	c.Reset()
	c.Admit(p)
	st := c.Stats()
	if st.Level != LevelGuided || st.Quarantined || !st.Idle {
		t.Errorf("after Reset: %+v", st)
	}
	if st.Admits != 4 || st.ImmediateAdmits != 4 || st.PassthroughAdmits != 1 || st.UnknownPasses != 0 {
		t.Errorf("ledger: %+v", st)
	}
}

// TestRelaxedNeverAddsHold: under {a0} pair (b,0) is futile at Tfactor 4 —
// the only state its thread's wait can bring about is {c1}, which loops on
// itself — but the edge {c1}→{d2}, too rare at 4, is inside the relaxed
// set, and {d2} has no guidance. Compiled on its own the relaxed table
// held the pair; as a restriction of the guided one it releases it.
func TestRelaxedNeverAddsHold(t *testing.T) {
	a0, b0, c1, d2 := commitOnly(0, 0), commitOnly(1, 0), commitOnly(2, 1), commitOnly(3, 2)
	m := edges(3, edge{a0, c1, 10}, edge{c1, c1, 10}, edge{c1, d2, 1}, edge{b0, a0, 1})
	guided, _ := holdTables(m, model.DefaultTfactor)
	if guided[a0.Key()][b0.Commit.Key()] != vFutile {
		t.Fatalf("setup: guided verdict %d, want futile", guided[a0.Key()][b0.Commit.Key()])
	}
	if alone, _ := holdTables(m, model.DefaultTfactor*DefaultRelaxFactor); alone[a0.Key()][b0.Commit.Key()] != vHold {
		t.Fatalf("setup: compiled at the relaxed Tfactor the verdict is %d, want held", alone[a0.Key()][b0.Commit.Key()])
	}
	yields := 0
	c := New(m, Options{HealthWindow: -1, Yield: func() { yields++ }})
	c.level.Store(int32(LevelRelaxed))
	c.OnCommit(1, a0.Commit)
	c.Admit(b0.Commit)
	if st := c.Stats(); yields != 0 || st.Holds != 0 || st.FutileAdmits != 1 || st.RelaxedAdmits != 1 {
		t.Errorf("yields = %d, stats = %+v; want the pair released at once at the relaxed level", yields, st)
	}
	for key, v := range c.tables.Load().verdicts {
		for pk, v := range v.relaxed {
			if guided[key][pk] != v {
				t.Errorf("%v: relaxed verdict %d for %v, guided %d", tts.MustParseKey(key), v, tts.PairFromKey(pk), guided[key][pk])
			}
		}
	}
}
