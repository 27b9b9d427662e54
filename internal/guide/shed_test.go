package guide

import (
	"math/rand"
	"sync"
	"testing"

	"gstm/internal/model"
	"gstm/internal/tts"
)

// TestNoteShedOutsidePartition is the property test for the shed
// ledger: for any interleaved sequence of Admit, AdmitIrrevocable,
// NoteShed, and SwapModel calls, the partition invariant
// Admits == ImmediateAdmits + Holds + ReadOnlyAdmits must keep
// holding, and Sheds must equal exactly the NoteShed count — sheds
// never leak into any admit bucket.
func TestNoteShedOutsidePartition(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := model.New(4)
		m.AddRun([]tts.State{
			{Commit: tts.Pair{Tx: 1, Thread: 0}},
			{Commit: tts.Pair{Tx: 2, Thread: 1}},
			{Commit: tts.Pair{Tx: 1, Thread: 2}},
		})
		c := New(m, Options{K: 2, HealthWindow: -1})
		wantSheds := uint64(0)
		n := 200 + rng.Intn(400)
		for i := 0; i < n; i++ {
			p := tts.Pair{Tx: uint16(1 + rng.Intn(9)), Thread: uint16(rng.Intn(4))}
			switch rng.Intn(10) {
			case 0:
				c.NoteShed(p)
				wantSheds++
			case 1:
				c.AdmitIrrevocable(p)
			case 2:
				c.OnCommit(uint64(i+1), p)
			case 3:
				c.SwapModel(m)
			default:
				c.Admit(p)
			}
		}
		st := c.Stats()
		if st.Admits != st.ImmediateAdmits+st.Holds+st.ReadOnlyAdmits {
			t.Fatalf("seed %d: partition broken: %+v", seed, st)
		}
		if st.Sheds != wantSheds {
			t.Fatalf("seed %d: Sheds = %d, want %d", seed, st.Sheds, wantSheds)
		}
	}
}

// TestNoteShedConcurrent hammers the same property under real
// concurrency with model swaps racing the decision stream.
func TestNoteShedConcurrent(t *testing.T) {
	m := model.New(4)
	m.AddRun([]tts.State{
		{Commit: tts.Pair{Tx: 1, Thread: 0}},
		{Commit: tts.Pair{Tx: 2, Thread: 1}},
	})
	c := New(m, Options{K: 2})
	const (
		workers = 4
		perW    = 500
		shedsW  = 100
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				p := tts.Pair{Tx: uint16(1 + (i % 3)), Thread: uint16(w)}
				c.Admit(p)
				if i%(perW/shedsW) == 0 {
					c.NoteShed(p)
				}
				if i%97 == 0 {
					c.OnCommit(uint64(w*perW+i+1), p)
				}
				if i%151 == 0 {
					c.SwapModel(m)
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Admits != st.ImmediateAdmits+st.Holds+st.ReadOnlyAdmits {
		t.Fatalf("partition broken under concurrency: %+v", st)
	}
	if want := uint64(workers * shedsW); st.Sheds != want {
		t.Fatalf("Sheds = %d, want %d", st.Sheds, want)
	}
	if st.Admits != uint64(workers*perW) {
		t.Fatalf("Admits = %d, want %d (sheds must not count as admits)", st.Admits, workers*perW)
	}
}
