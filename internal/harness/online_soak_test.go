package harness

import (
	"testing"

	"gstm/internal/guide"
)

// TestOnlineSoak is the bounded online-controller soak (check.sh runs
// it under -race): several measured runs on a real workload with the
// background learner attached, epochs processing and snapshots swapping
// in while the commit path runs full speed. It pins liveness (the run
// completes), learning (epochs processed, at least one swap installed)
// and the gate's accounting invariant under concurrent swaps.
func TestOnlineSoak(t *testing.T) {
	e := fastExperiment("kmeans", 4)
	e.MeasureRuns = 3
	e.EpochEvents = 256
	// The soak wants swap traffic racing the commit path, not a strict
	// admission audit (the audit's own behavior has its own tests): a
	// lax fitness ceiling keeps snapshots installing even when race-
	// detector timing reshapes the epochs.
	e.MaxMetric = 95
	res, st, err := e.MeasureOnline()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("learner: %+v", st)
	if res.Commits == 0 {
		t.Fatal("online-guided run produced no commits")
	}
	if st.Epochs == 0 {
		t.Fatalf("background learner processed no epochs: %+v", st)
	}
	if st.Swaps == 0 {
		t.Fatalf("no snapshot ever swapped in: %+v", st)
	}
	gs := res.Guide
	if gs.ModelSwaps != st.Swaps {
		t.Errorf("gate saw %d swaps, learner made %d", gs.ModelSwaps, st.Swaps)
	}
	if gs.Admits != gs.ImmediateAdmits+gs.Holds {
		t.Errorf("admit partition broken under online soak: %+v", gs)
	}
	if gs.Level == guide.LevelPassthrough && !st.Quarantined {
		t.Errorf("gate at passthrough without learner quarantine: %+v / %+v", gs, st)
	}
}
