package guide

import (
	"sync/atomic"
	"testing"
	"time"

	"gstm/internal/tts"
)

// TestHoldBoundedUnderStateStorm verifies the total re-check cap: a
// continuous stream of state changes (none admitting the held pair)
// cannot hold a transaction past maxHoldFactor×k re-checks.
func TestHoldBoundedUnderStateStorm(t *testing.T) {
	c := New(twoStateModel(), Options{K: 4})
	c.OnCommit(1, tts.Pair{Tx: 0, Thread: 0})

	var stop atomic.Bool
	stormDone := make(chan struct{})
	go func() {
		defer close(stormDone)
		inst := uint64(100)
		for !stop.Load() {
			// Alternate between the two known states; (c,2) is never in
			// the high-probability destinations of {<a0>} (only the
			// low-probability edge reaches it), and {<b1>}'s destination
			// set also excludes it.
			c.OnCommit(inst, tts.Pair{Tx: 0, Thread: 0})
			inst++
		}
	}()

	done := make(chan struct{})
	go func() {
		c.Admit(tts.Pair{Tx: 2, Thread: 2})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Admit not released despite the total re-check cap")
	}
	stop.Store(true)
	<-stormDone
}

// TestEscapeLatencyQuietSystem bounds the progress-escape cost when no
// commits arrive: with yield-only holds it must be far below a
// millisecond, or holds would dominate the variance they remove.
func TestEscapeLatencyQuietSystem(t *testing.T) {
	c := New(twoStateModel(), Options{K: 8})
	c.OnCommit(1, tts.Pair{Tx: 0, Thread: 0})
	// Warm up.
	c.Admit(tts.Pair{Tx: 2, Thread: 2})
	start := time.Now()
	const n = 50
	for i := 0; i < n; i++ {
		c.Admit(tts.Pair{Tx: 2, Thread: 2})
	}
	per := time.Since(start) / n
	if per > 2*time.Millisecond {
		t.Errorf("escape latency %v per admit; holds would dominate transactions", per)
	}
}

// TestStatsConsistency checks the counter identities: every admit is
// immediate, held, or escaped-after-hold, and escapes are a subset of
// holds.
func TestStatsConsistency(t *testing.T) {
	c := New(twoStateModel(), Options{K: 2})
	c.OnCommit(1, tts.Pair{Tx: 0, Thread: 0})
	c.Admit(tts.Pair{Tx: 1, Thread: 1}) // immediate
	c.Admit(tts.Pair{Tx: 2, Thread: 2}) // hold → escape
	c.Admit(tts.Pair{Tx: 2, Thread: 2}) // hold → escape
	st := c.Stats()
	if st.Admits != st.ImmediateAdmits+st.Holds+st.ReadOnlyAdmits {
		t.Errorf("admits %d != immediate %d + holds %d", st.Admits, st.ImmediateAdmits, st.Holds)
	}
	if st.Escapes > st.Holds {
		t.Errorf("escapes %d > holds %d", st.Escapes, st.Holds)
	}
}
