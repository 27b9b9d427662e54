package gstm

// Anti-vacuity guards for the gate itself. gstmbench's traced pass shows
// whether guidance still holds anybody and whether the holds still end in
// a state change rather than the k-escape; these tests put the same two
// readings into `go test ./...`, so a model or gate change that silently
// brings the timeout-hold back, or prunes every hold, fails here first.
// They run on one P: the threads then interleave at the runtimes' yield
// points and at the gate's own yields, not by OS timing, so a host busy
// with the other packages' tests cannot starve the overlap a model needs.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"gstm/internal/guide"
	"gstm/internal/synquake"
)

// TestGuidedSynQuakeHoldsAndResolves runs gstmbench's SynQuake cell in
// small: trained on 4worst_case and 4moving, guided on 4quadrants. The
// gate must hold somebody, and most holds must end because the state
// moved to one that admits the pair — before the hold rule was closed
// over reachability 95 % of them ended in the escape.
func TestGuidedSynQuakeHoldsAndResolves(t *testing.T) {
	skipIfRace(t) // k yields against a transaction ten times slower: the shares are timing
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := synquake.Experiment{
		Players: 1000, MapSize: 1024, Threads: 2,
		TrainFrames: 100, TestFrames: 200, Runs: 1, Seed: 1,
	}
	m, err := e.Train()
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Measure(guide.New(m.Prune(DefaultTfactor), guide.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	gs := res.Guide
	t.Log(gs.Summary())
	if gs.Holds == 0 {
		t.Fatalf("guided SynQuake held nobody in %d admits: the hold rule prunes everything", gs.Admits)
	}
	if 2*gs.Escapes >= gs.Holds {
		t.Errorf("%d of %d holds ended in the k-escape, want under half: the gate holds where waiting cannot work",
			gs.Escapes, gs.Holds)
	}
}

// TestGuidedBankHolds runs a bank-hot-style TL2 workload — two threads,
// eight shared accounts, transfers beside whole-bank audits — and checks
// that guidance trained on it still holds somebody.
func TestGuidedBankHolds(t *testing.T) {
	skipIfRace(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const (
		threads  = 2
		accounts = 8
		ops      = 10000
	)
	bank := func(s *STM) {
		arr := NewArray(accounts, 1<<20)
		var wg, ready sync.WaitGroup
		ready.Add(threads)
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				ready.Done()
				ready.Wait() // start together: the threads must overlap
				rng := rand.New(rand.NewSource(int64(th)))
				for i := 0; i < ops; i++ {
					var err error
					if rng.Intn(100) < 30 {
						err = s.Atomic(uint16(th), 1, func(tx *Tx) error {
							var sum int64
							for a := 0; a < accounts; a++ {
								sum += arr.Get(tx, a)
							}
							if sum != accounts<<20 {
								return fmt.Errorf("audit saw %d, want %d", sum, accounts<<20)
							}
							return nil
						})
					} else {
						from := rng.Intn(accounts)
						to := (from + 1 + rng.Intn(accounts-1)) % accounts
						err = s.Atomic(uint16(th), 0, func(tx *Tx) error {
							a, b := arr.Get(tx, from), arr.Get(tx, to)
							amt := int64(1)
							for w := 0; w < 300; w++ { // a body long enough to overlap
								amt = amt*31%7 + 1
							}
							arr.Set(tx, from, a-amt)
							arr.Set(tx, to, b+amt)
							return nil
						})
					}
					if err != nil {
						t.Error(err)
					}
				}
			}(th)
		}
		wg.Wait()
	}
	// A backoff under the runtime's sleep threshold, as on bank-hot: with
	// the default the loser of a conflict parks and conflicts vanish.
	opts := Options{BackoffBase: time.Nanosecond}
	var runs [][]State
	for i := 0; i < 3; i++ {
		s, col := New(opts), NewCollector()
		s.SetTracer(col)
		bank(s)
		seq, _ := col.Sequence()
		runs = append(runs, seq)
	}
	m := BuildModel(threads, runs...)
	ctrl := NewController(m, 0, 0)
	s := New(opts)
	Guide(s, ctrl, nil)
	bank(s)
	gs := ctrl.Stats()
	t.Logf("%d model states: %s", m.NumStates(), gs.Summary())
	if gs.Holds == 0 {
		t.Fatalf("guided bank held nobody in %d admits: the hold rule prunes everything", gs.Admits)
	}
}

// TestGuidedDisjointAlternationIsIdle is the other side: two threads on
// private arrays with a constant think time, the set-up bench/README.md
// records as learning strict alternation — "the other thread is next" —
// and holding 70 % of all calls on data that never conflicts. Nobody
// aborts, so the model has no evidence that anybody is anybody's casualty:
// the tables must hold nobody and the gate must not track state. With the
// two tests above this pins the evidence clause from both sides.
func TestGuidedDisjointAlternationIsIdle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const (
		threads = 2
		words   = 256
		ops     = 5000
	)
	ladder := func(s *STM) error {
		var wg, ready sync.WaitGroup
		ready.Add(threads)
		errs := make([]error, threads)
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				arr := NewArray(words, 1<<20) // private: no other thread touches it
				think := int64(1)
				ready.Done()
				ready.Wait()
				for i := 0; i < ops && errs[th] == nil; i++ {
					from, to := i%words, (i+7)%words
					errs[th] = s.Atomic(uint16(th), 0, func(tx *Tx) error {
						arr.Set(tx, from, arr.Get(tx, from)-1)
						arr.Set(tx, to, arr.Get(tx, to)+1)
						return nil
					})
					for w := 0; w < 400; w++ { // constant think time, outside any transaction
						think = think*31%7 + 1
					}
				}
			}(th)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	m, err := Profile(3, threads, ladder)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(m, 0, 0)
	s := New(Options{})
	Guide(s, ctrl, nil)
	if err := ladder(s); err != nil {
		t.Fatal(err)
	}
	gs := ctrl.Stats()
	t.Logf("%d model states: %s", m.NumStates(), gs.Summary())
	if s.Aborts() != 0 {
		t.Fatalf("setup: %d aborts on disjoint data", s.Aborts())
	}
	if gs.Admits < threads*ops {
		t.Errorf("%d admits for %d transactions: the idle gate was not consulted, or did not count", gs.Admits, threads*ops)
	}
	if gs.Holds != 0 || !gs.Idle {
		t.Errorf("holds = %d, idle = %v on data that never conflicts: the gate enforces the profiled commit order",
			gs.Holds, gs.Idle)
	}
}
