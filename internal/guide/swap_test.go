package guide

import (
	"testing"
	"testing/quick"

	"gstm/internal/model"
	"gstm/internal/proptest"
	"gstm/internal/tts"
)

var (
	pairA0 = tts.Pair{Tx: 0, Thread: 0}
	pairB1 = tts.Pair{Tx: 1, Thread: 1}
	pairC2 = tts.Pair{Tx: 2, Thread: 2}
)

// skewedModel builds a model where {<a0>} goes to the hi pair's
// singleton 90 times and the lo pair's once — hi clears the Tfactor
// gate, lo falls well below it.
func skewedModel(hi, lo tts.Pair) *model.TSA {
	a0 := tts.State{Commit: pairA0}
	runs := make([][]tts.State, 0, 91)
	for i := 0; i < 90; i++ {
		runs = append(runs, []tts.State{a0, {Commit: hi}})
	}
	runs = append(runs, []tts.State{a0, {Commit: lo}})
	return model.Build(4, runs...).AssumeAllConflict()
}

// TestSwapModelReplacesGuidance pins the basic swap contract: after
// SwapModel the gate answers from the new model, including for the
// snapshot that was current at swap time (held transactions must not
// wait for the next commit to see fresh guidance).
func TestSwapModelReplacesGuidance(t *testing.T) {
	before := skewedModel(pairB1, pairC2) // a0 → b1 high-prob, c2 not
	after := skewedModel(pairC2, pairB1)  // a0 → c2 high-prob, b1 not
	c := New(before, Options{HealthWindow: -1})
	c.OnCommit(1, pairA0)
	if ok, _ := c.WouldAdmit(pairB1); !ok {
		t.Fatal("setup: old model rejects its own high-prob pair")
	}
	if ok, _ := c.WouldAdmit(pairC2); ok {
		t.Fatal("setup: old model admits the low-prob pair")
	}

	c.SwapModel(after)

	// No new commit has happened: the refreshed snapshot alone must
	// flip both answers.
	if ok, _ := c.WouldAdmit(pairC2); !ok {
		t.Error("swapped model's high-prob pair still rejected")
	}
	if ok, _ := c.WouldAdmit(pairB1); ok {
		t.Error("old model's high-prob pair still admitted after swap")
	}
	if got := c.Model(); got != after {
		t.Error("Model() does not return the swapped-in model")
	}
	if st := c.Stats(); st.ModelSwaps != 1 {
		t.Errorf("ModelSwaps = %d, want 1", st.ModelSwaps)
	}
	if c.SwapModel(nil); c.Model() != after {
		t.Error("SwapModel(nil) replaced the model")
	}
}

// TestSwapModelRecompilesHolds: the hold rule is compiled per model, so
// a swap must recompile it. (tx1,t1) under {tx0,t0} is futile in the
// SynQuake shape — only thread 1's own states admit it; in the swapped-in
// model thread 0's next state admits it, so the hold comes back on, for
// the snapshot that was current at swap time too.
func TestSwapModelRecompilesHolds(t *testing.T) {
	a0, b0, b1 := commitOnly(0, 0), commitOnly(1, 0), commitOnly(1, 1)
	c := New(quakeShape(), Options{HealthWindow: -1})
	c.OnCommit(1, a0.Commit)
	if ok, _ := c.WouldAdmit(b1.Commit); !ok {
		t.Fatal("setup: futile pair held before the swap")
	}

	c.SwapModel(edges(2, edge{a0, b0, 10}, edge{b0, b1, 10}, edge{b1, a0, 10}))

	if ok, unknown := c.WouldAdmit(b1.Commit); ok || unknown {
		t.Fatalf("after the swap: ok=%v unknown=%v, want the pair held behind {tx1,t0}", ok, unknown)
	}
	var yields int
	c.yield = func() {
		if yields++; yields == 1 {
			c.OnCommit(2, b0.Commit)
		}
	}
	c.Admit(b1.Commit)
	if st := c.Stats(); st.Holds != 1 || st.Escapes != 0 || st.FutileAdmits != 0 {
		t.Errorf("stats = %+v, want one hold resolved by thread 0's commit", st)
	}
}

// TestQuarantineLatchesPassthrough pins the latch semantics: a
// quarantined controller sits at LevelPassthrough and the health
// monitor's probing re-arm cannot lift it, no matter how many healthy
// windows accumulate; only Rearm does.
func TestQuarantineLatchesPassthrough(t *testing.T) {
	c := New(twoStateModel(), Options{HealthWindow: 8, RearmWindows: 1})
	c.OnCommit(1, tts.Pair{Tx: 0, Thread: 0})

	c.Quarantine()
	c.Quarantine() // idempotent
	st := c.Stats()
	if st.Level != LevelPassthrough || !st.Quarantined {
		t.Fatalf("after Quarantine: level %v quarantined %v", st.Level, st.Quarantined)
	}
	if st.Degradations != 1 {
		t.Errorf("Degradations = %d, want 1 (second Quarantine is a no-op)", st.Degradations)
	}

	// 10 full windows of healthy passthrough admits: without the latch
	// the ladder would re-arm after the first.
	for i := 0; i < 80; i++ {
		c.Admit(tts.Pair{Tx: 1, Thread: 1})
	}
	if lvl := c.Level(); lvl != LevelPassthrough {
		t.Fatalf("probing re-arm lifted a quarantine: level %v", lvl)
	}

	c.Rearm()
	st = c.Stats()
	if st.Level != LevelGuided || st.Quarantined {
		t.Fatalf("after Rearm: level %v quarantined %v", st.Level, st.Quarantined)
	}
	if st.Rearms != 1 {
		t.Errorf("Rearms = %d, want 1", st.Rearms)
	}
	c.Rearm() // no-op when not quarantined
	if got := c.Stats().Rearms; got != 1 {
		t.Errorf("Rearms after redundant Rearm = %d, want 1", got)
	}
}

// TestSwapAccountingProperty is the satellite invariant pin: under an
// arbitrary interleaving of admits (gated, irrevocable),
// commits, aborts, model swaps, quarantines, and resets, the
// disposition buckets always partition the admits —
//
//	Admits == ImmediateAdmits + Holds + ReadOnlyAdmits
//
// — with ReadOnlyAdmits always 0 — and ModelSwaps counts every
// installation.
func TestSwapAccountingProperty(t *testing.T) {
	models := []*model.TSA{
		skewedModel(pairB1, pairC2),
		skewedModel(pairC2, pairB1),
		twoStateModel(),
	}
	prop := func(ops []uint8) bool {
		c := New(models[2], Options{K: 2, HealthWindow: 4})
		instance := uint64(0)
		swaps := uint64(0)
		for _, op := range ops {
			switch op % 8 {
			case 0:
				c.Admit(pairB1)
			case 1:
				c.Admit(pairC2)
			case 2:
				c.Admit(tts.Pair{Tx: 7, Thread: 3})
			case 3:
				c.AdmitIrrevocable(pairA0)
			case 4:
				instance++
				c.OnCommit(instance, pairA0)
			case 5:
				c.OnAbort(pairC2, instance)
			case 6:
				c.SwapModel(models[int(op/8)%len(models)])
				swaps++
			case 7:
				if op >= 128 {
					c.Quarantine()
				} else if op >= 64 {
					c.Rearm()
				} else {
					c.Reset()
				}
			}
		}
		st := c.Stats()
		if st.Admits != st.ImmediateAdmits+st.Holds+st.ReadOnlyAdmits {
			t.Logf("partition broken: %+v", st)
			return false
		}
		if st.ReadOnlyAdmits != 0 {
			t.Logf("ReadOnlyAdmits = %d, want 0: no admit bypasses the gate", st.ReadOnlyAdmits)
			return false
		}
		if st.ModelSwaps != swaps {
			t.Logf("ModelSwaps = %d, want %d", st.ModelSwaps, swaps)
			return false
		}
		return true
	}
	if err := quick.Check(prop, proptest.Config(t, 200)); err != nil {
		t.Fatal(err)
	}
}
