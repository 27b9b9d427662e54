package guide

import (
	"testing"
	"testing/quick"

	"gstm/internal/model"
	"gstm/internal/proptest"
	"gstm/internal/tts"
)

// TestSwapModelReplacesGuidance pins the basic swap contract: after
// SwapModel the gate answers from the new model, including for the
// snapshot that was current at swap time (held transactions must not
// wait for the next commit to see fresh guidance).
func TestSwapModelReplacesGuidance(t *testing.T) {
	before := skewedModel(blendB1, blendC2) // a0 → b1 high-prob, c2 not
	after := skewedModel(blendC2, blendB1)  // a0 → c2 high-prob, b1 not
	c := New(before, Options{HealthWindow: -1})
	c.OnCommit(1, blendA0)
	if ok, _ := c.WouldAdmit(blendB1); !ok {
		t.Fatal("setup: old model rejects its own high-prob pair")
	}
	if ok, _ := c.WouldAdmit(blendC2); ok {
		t.Fatal("setup: old model admits the low-prob pair")
	}

	c.SwapModel(after)

	// No new commit has happened: the refreshed snapshot alone must
	// flip both answers.
	if ok, _ := c.WouldAdmit(blendC2); !ok {
		t.Error("swapped model's high-prob pair still rejected")
	}
	if ok, _ := c.WouldAdmit(blendB1); ok {
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

// TestSwapModelUnderBlendKeepsPriorWeight pins the blend interaction:
// swapping a base model under a configured prior neither advances nor
// rewinds the evidence-driven prior weight — a swap is new data, not
// new commits — and the blended sets recompute from the new base.
func TestSwapModelUnderBlendKeepsPriorWeight(t *testing.T) {
	prior := skewedModel(blendB1, blendC2)
	c := New(nil, Options{Prior: prior, BlendEvidence: 8, HealthWindow: -1})
	for i := 1; i <= 20; i++ {
		c.OnCommit(uint64(i), blendA0)
	}
	st := c.Stats()
	if st.PriorWeight != 0 || st.Evidence != 20 {
		t.Fatalf("setup: weight %v evidence %d, want 0 and 20", st.PriorWeight, st.Evidence)
	}

	c.SwapModel(skewedModel(blendC2, blendB1))
	c.OnCommit(21, blendA0)

	st = c.Stats()
	if st.Evidence != 21 {
		t.Errorf("Evidence = %d after swap + one commit, want 21 (swaps must not count)", st.Evidence)
	}
	if st.PriorWeight != 0 {
		t.Errorf("PriorWeight = %v after swap, want 0 still", st.PriorWeight)
	}
	// Prior weight is 0, so guidance is purely the swapped base now.
	if ok, _ := c.WouldAdmit(blendC2); !ok {
		t.Error("swapped base's high-prob pair rejected under blend")
	}
	if ok, _ := c.WouldAdmit(blendB1); ok {
		t.Error("replaced base's high-prob pair still admitted under blend")
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
// arbitrary interleaving of admits (gated, readonly, irrevocable),
// commits, aborts, model swaps, quarantines, and resets, the
// disposition buckets always partition the admits —
//
//	Admits == ImmediateAdmits + Holds + ReadOnlyAdmits
//
// — and under a prior Evidence counts each traced commit exactly once
// (repeated SwapModel calls never double-count it); without one it is not
// counted at all.
func TestSwapAccountingProperty(t *testing.T) {
	models := []*model.TSA{
		skewedModel(blendB1, blendC2),
		skewedModel(blendC2, blendB1),
		twoStateModel(),
	}
	prop := func(ops []uint8, withPrior bool) bool {
		var opts Options
		opts.K = 2
		opts.HealthWindow = 4
		opts.Manifest = certManifest(7)
		if withPrior {
			opts.Prior = models[0]
			opts.BlendEvidence = 8
		}
		var seed *model.TSA
		if !withPrior {
			seed = models[2]
		}
		c := New(seed, opts)
		instance := uint64(0)
		commits, swaps := uint64(0), uint64(0)
		for _, op := range ops {
			switch op % 8 {
			case 0:
				c.Admit(blendB1)
			case 1:
				c.Admit(blendC2)
			case 2:
				c.Admit(tts.Pair{Tx: 7, Thread: 3}) // certified readonly
			case 3:
				c.AdmitIrrevocable(blendA0)
			case 4:
				instance++
				commits++
				c.OnCommit(instance, blendA0)
			case 5:
				c.OnAbort(blendC2, instance)
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
		wantEvidence := commits
		if !withPrior {
			wantEvidence = 0
		}
		if st.Evidence != wantEvidence {
			t.Logf("Evidence = %d, want %d of %d commits (swaps=%d)", st.Evidence, wantEvidence, commits, swaps)
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
