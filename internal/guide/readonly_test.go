package guide

import (
	"testing"
	"time"

	"gstm/internal/effect"
	"gstm/internal/tts"
)

// certManifest certifies the given transaction IDs readonly.
func certManifest(ids ...uint16) *effect.Manifest {
	m := &effect.Manifest{}
	for _, id := range ids {
		m.Sites = append(m.Sites, effect.Site{
			Key:   "test.scan@readonly_test.go:1",
			Tx:    "scan",
			TxID:  int(id),
			Class: effect.ReadOnly,
		})
	}
	return m
}

// TestCertifiedReadOnlyAdmitsImmediately pins the gate bypass: a pair
// whose transaction ID carries a readonly certificate is admitted at
// once even when the model would hold it, and the counters keep the
// Admits == ImmediateAdmits + Holds + ReadOnlyAdmits invariant.
func TestCertifiedReadOnlyAdmitsImmediately(t *testing.T) {
	c := New(twoStateModel(), Options{K: 5, Manifest: certManifest(2)})
	c.OnCommit(1, tts.Pair{Tx: 0, Thread: 0})
	// (2,2) is only in the low-probability destination — without the
	// certificate it holds and escapes (TestAdmitLowProbPairHeldThenEscapes).
	start := time.Now()
	c.Admit(tts.Pair{Tx: 2, Thread: 2})
	if time.Since(start) > 100*time.Millisecond {
		t.Error("certified pair was held")
	}
	st := c.Stats()
	if st.ReadOnlyAdmits != 1 {
		t.Errorf("ReadOnlyAdmits = %d, want 1", st.ReadOnlyAdmits)
	}
	if st.Holds != 0 || st.Escapes != 0 {
		t.Errorf("certified admit touched hold machinery: %+v", st)
	}
	if st.Admits != st.ImmediateAdmits+st.Holds+st.ReadOnlyAdmits {
		t.Errorf("counter invariant broken: %+v", st)
	}
	if st.ImmediateAdmits != 0 {
		t.Errorf("ImmediateAdmits = %d, want 0: certified admits are their own bucket", st.ImmediateAdmits)
	}
	if ok, unknown := c.WouldAdmit(tts.Pair{Tx: 2, Thread: 2}); !ok || unknown {
		t.Errorf("WouldAdmit(certified) = %v, %v, want true, false", ok, unknown)
	}
}

// TestCertifiedCommitDoesNotMoveState pins the OnCommit early return:
// a certified-readonly commit leaves the automaton anchored on the
// last writer's state.
func TestCertifiedCommitDoesNotMoveState(t *testing.T) {
	c := New(twoStateModel(), Options{K: 5, Manifest: certManifest(2)})
	c.OnCommit(1, tts.Pair{Tx: 0, Thread: 0})
	before := c.cur.Load()
	if before == nil {
		t.Fatal("writer commit installed no snapshot")
	}
	c.OnCommit(2, tts.Pair{Tx: 2, Thread: 2})
	if after := c.cur.Load(); after != before {
		t.Error("certified-readonly commit replaced the state snapshot")
	}
	// An uncertified commit still moves the automaton.
	c.OnCommit(3, tts.Pair{Tx: 1, Thread: 1})
	if after := c.cur.Load(); after == before {
		t.Error("uncertified commit did not replace the state snapshot")
	}
}

// TestCertifiedCommitAllocFree pins the "kills the gate's per-commit
// allocations" claim for certified pairs.
func TestCertifiedCommitAllocFree(t *testing.T) {
	if effect.RaceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	c := New(twoStateModel(), Options{K: 5, Manifest: certManifest(2)})
	c.OnCommit(1, tts.Pair{Tx: 0, Thread: 0})
	p := tts.Pair{Tx: 2, Thread: 2}
	if avg := testing.AllocsPerRun(100, func() { c.OnCommit(7, p) }); avg != 0 {
		t.Errorf("certified OnCommit allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { c.Admit(p) }); avg != 0 {
		t.Errorf("certified Admit allocates %.1f/op, want 0", avg)
	}
}
