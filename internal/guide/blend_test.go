package guide

import (
	"testing"

	"gstm/internal/model"
	"gstm/internal/tts"
)

var (
	blendA0 = tts.Pair{Tx: 0, Thread: 0}
	blendB1 = tts.Pair{Tx: 1, Thread: 1}
	blendC2 = tts.Pair{Tx: 2, Thread: 2}
)

// skewedModel builds a model where {<a0>} goes to the hi pair's
// singleton 90 times and the lo pair's once — hi clears the Tfactor
// gate, lo falls well below it.
func skewedModel(hi, lo tts.Pair) *model.TSA {
	a0 := tts.State{Commit: blendA0}
	runs := make([][]tts.State, 0, 91)
	for i := 0; i < 90; i++ {
		runs = append(runs, []tts.State{a0, {Commit: hi}})
	}
	runs = append(runs, []tts.State{a0, {Commit: lo}})
	return model.Build(4, runs...).AssumeAllConflict()
}

// TestPriorOnlyGatesLikeAModel pins the cold-start contract: a
// controller built from a prior alone (nil profiled model) gates
// exactly as if the prior had been profiled, and a negative
// BlendEvidence pins the prior's weight at 1 no matter how much
// evidence accumulates.
func TestPriorOnlyGatesLikeAModel(t *testing.T) {
	prior := skewedModel(blendB1, blendC2)
	c := New(nil, Options{Prior: prior, BlendEvidence: -1, HealthWindow: -1})
	for i := 1; i <= 50; i++ {
		c.OnCommit(uint64(i), blendA0)
	}
	if ok, _ := c.WouldAdmit(blendB1); !ok {
		t.Error("high-probability pair rejected under prior-only gating")
	}
	if ok, unknown := c.WouldAdmit(blendC2); ok || unknown {
		t.Errorf("low-probability pair: ok=%v unknown=%v, want a firm rejection", ok, unknown)
	}
	st := c.Stats()
	if st.PriorWeight != 1 {
		t.Errorf("PriorWeight = %v, want pinned at 1", st.PriorWeight)
	}
	if st.Evidence != 50 {
		t.Errorf("Evidence = %d, want 50", st.Evidence)
	}
}

// TestPriorOnlyAdmitHoldsAndEscapes runs the full blocking gate (not
// just the probe) against a prior to confirm the hold loop and the
// progress escape work off blended sets too.
func TestPriorOnlyAdmitHoldsAndEscapes(t *testing.T) {
	prior := skewedModel(blendB1, blendC2)
	c := New(nil, Options{Prior: prior, BlendEvidence: -1, HealthWindow: -1,
		K: 4})
	c.OnCommit(1, blendA0)
	c.Admit(blendB1)
	c.Admit(blendC2)
	st := c.Stats()
	if st.ImmediateAdmits != 1 || st.Holds != 1 || st.Escapes != 1 {
		t.Errorf("stats = %+v, want 1 immediate / 1 hold / 1 escape", st)
	}
}

// TestBlendConvergesToProfiledModel gives the prior and the profiled
// model opposite opinions and checks the hand-over: cold, the gate
// follows the prior; once evidence exceeds BlendEvidence, it follows
// the profiled model.
func TestBlendConvergesToProfiledModel(t *testing.T) {
	prior := skewedModel(blendB1, blendC2)    // prior: b1 good, c2 bad
	profiled := skewedModel(blendC2, blendB1) // reality: c2 good, b1 bad
	c := New(profiled, Options{Prior: prior, BlendEvidence: 16, HealthWindow: -1})

	c.OnCommit(1, blendA0)
	if ok, _ := c.WouldAdmit(blendB1); !ok {
		t.Error("cold start: prior-endorsed pair rejected")
	}
	if ok, _ := c.WouldAdmit(blendC2); ok {
		t.Error("cold start: prior-penalized pair admitted")
	}
	if w := c.Stats().PriorWeight; w <= 0.5 {
		t.Errorf("cold-start PriorWeight = %v, want near 1", w)
	}

	for i := 2; i <= 20; i++ {
		c.OnCommit(uint64(i), blendA0)
	}
	if ok, _ := c.WouldAdmit(blendC2); !ok {
		t.Error("converged: profiled high-probability pair rejected")
	}
	if ok, _ := c.WouldAdmit(blendB1); ok {
		t.Error("converged: pair only the stale prior endorsed is still admitted")
	}
	if w := c.Stats().PriorWeight; w != 0 {
		t.Errorf("converged PriorWeight = %v, want 0", w)
	}
}

// TestStreamedModelTakesOver starts from a prior alone and checks that
// the live model streamed from traced commits replaces it: the prior
// only knows a0→b1, but execution keeps alternating a0 and c2 commits,
// so after the blend decays the gate admits what actually runs.
func TestStreamedModelTakesOver(t *testing.T) {
	prior := skewedModel(blendB1, blendC2)
	c := New(nil, Options{Prior: prior, BlendEvidence: 8, HealthWindow: -1})
	instance := uint64(0)
	for i := 0; i < 15; i++ {
		instance++
		c.OnCommit(instance, blendA0)
		instance++
		c.OnCommit(instance, blendC2)
	}
	instance++
	c.OnCommit(instance, blendA0)

	if ok, _ := c.WouldAdmit(blendC2); !ok {
		t.Error("streamed model: the pair that actually follows a0 is rejected")
	}
	if ok, unknown := c.WouldAdmit(blendB1); ok || unknown {
		t.Errorf("streamed model: prior-only pair ok=%v unknown=%v, want firm rejection", ok, unknown)
	}
	if w := c.Stats().PriorWeight; w != 0 {
		t.Errorf("PriorWeight = %v, want 0 after hand-over", w)
	}
	if c.Model().NumStates() == 0 {
		t.Error("streaming learned no states")
	}
}

// TestBlendUnknownStateAdmits keeps the unknown-state contract under
// blending: a state neither model knows yields nil sets and everyone
// passes, flagged unknown.
func TestBlendUnknownStateAdmits(t *testing.T) {
	prior := skewedModel(blendB1, blendC2)
	c := New(nil, Options{Prior: prior, BlendEvidence: -1, HealthWindow: -1})
	c.OnCommit(1, tts.Pair{Tx: 9, Thread: 3})
	if ok, unknown := c.WouldAdmit(blendC2); !ok || !unknown {
		t.Errorf("unknown state: ok=%v unknown=%v, want an unknown pass", ok, unknown)
	}
}

// TestBlendResetKeepsEvidence pins Reset semantics: learned blend
// state (evidence, streamed model) survives; only the run-local
// snapshot and stream chain are cleared.
func TestBlendResetKeepsEvidence(t *testing.T) {
	prior := skewedModel(blendB1, blendC2)
	c := New(nil, Options{Prior: prior, BlendEvidence: 4, HealthWindow: -1})
	for i := 1; i <= 6; i++ {
		c.OnCommit(uint64(i), blendA0)
	}
	c.Reset()
	st := c.Stats()
	if st.Evidence != 6 {
		t.Errorf("Evidence after Reset = %d, want 6 (learned state survives)", st.Evidence)
	}
	if st.PriorWeight != 0 {
		t.Errorf("PriorWeight after Reset = %v, want 0", st.PriorWeight)
	}
	if snap := c.cur.Load(); snap != nil {
		t.Error("Reset did not clear the current snapshot")
	}
}
