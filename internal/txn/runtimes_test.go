package txn_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"gstm/internal/libtm"
	"gstm/internal/progress"
	"gstm/internal/tl2"
	"gstm/internal/txn"
)

// The driver's rules checked on the real runtimes: each test runs the
// same script over TL2 and the four LibTM detection/resolution corners.

// stm is the surface the scripts need from either runtime.
type stm struct {
	name string
	// rmw increments the runtime's one location on the given thread,
	// panicking with panicWith (if non-nil) after the write.
	rmw   func(thread uint16, panicWith any) error
	scan  func() error // read-only transaction (ID 9)
	value func() int64

	commits, aborts func() uint64
	reset           func()
}

var libtmModes = map[string]libtm.Mode{
	"FullyOptimistic":  libtm.FullyOptimistic,
	"FullyPessimistic": libtm.FullyPessimistic,
	"VisCommitAbortRd": {Reads: libtm.VisibleReads, Writes: libtm.CommitWrites, Resolution: libtm.AbortReaders},
	"InvisEncounter":   {Reads: libtm.InvisibleReads, Writes: libtm.EncounterWrites, Resolution: libtm.AbortReaders},
}

// runtimes builds one fresh instance of every runtime configuration.
// Retries are bounded and escalation and the watchdog are off, so a
// leaked lock shows up as ErrRetryLimit instead of a hang.
func runtimes() []stm {
	var out []stm
	{
		s := tl2.New(tl2.Options{MaxRetries: 50, EscalateAfter: -1, WatchdogWindow: -1})
		v := tl2.NewVar(0)
		out = append(out, stm{
			name: "tl2",
			rmw: func(thread uint16, panicWith any) error {
				return s.Atomic(thread, 1, func(tx *tl2.Tx) error {
					tx.Write(v, tx.Read(v)+1)
					if panicWith != nil {
						panic(panicWith)
					}
					return nil
				})
			},
			scan:    func() error { return s.Atomic(0, 9, func(tx *tl2.Tx) error { _ = tx.Read(v); return nil }) },
			value:   v.Value,
			commits: s.Commits, aborts: s.Aborts, reset: s.ResetCounters,
		})
	}
	for name, mode := range libtmModes {
		s := libtm.New(libtm.Options{Mode: mode, MaxRetries: 50, EscalateAfter: -1, WatchdogWindow: -1})
		o := libtm.NewObj(0)
		out = append(out, stm{
			name: "libtm/" + name,
			rmw: func(thread uint16, panicWith any) error {
				return s.Atomic(thread, 1, func(tx *libtm.Tx) error {
					tx.Write(o, tx.Read(o)+1)
					if panicWith != nil {
						panic(panicWith)
					}
					return nil
				})
			},
			scan:    func() error { return s.Atomic(0, 9, func(tx *libtm.Tx) error { _ = tx.Read(o); return nil }) },
			value:   o.Value,
			commits: s.Commits, aborts: s.Aborts, reset: s.ResetCounters,
		})
	}
	return out
}

// TestBodyPanicReleasesLocks: a panic out of a transaction body must
// not leave the locations it touched locked or registered — a second
// thread's transaction on the same location commits first try. (LibTM
// used to re-raise without cleanup, so an encounter-time write lock or
// a visible-reader registration outlived the panicking attempt and
// every later writer aborted against it forever.)
func TestBodyPanicReleasesLocks(t *testing.T) {
	for _, s := range runtimes() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			func() {
				defer func() {
					if r := recover(); r != "boom" {
						t.Fatalf("recovered %v, want the body's panic", r)
					}
				}()
				_ = s.rmw(0, "boom")
			}()
			if err := s.rmw(1, nil); err != nil {
				t.Fatalf("transaction after a panicked one: %v (locks or reader registrations leaked)", err)
			}
			if s.aborts() != 0 {
				t.Errorf("the follow-up transaction aborted %d times against the panicked one's leftovers", s.aborts())
			}
			if got := s.value(); got != 1 {
				t.Errorf("value = %d, want 1 (the panicked write rolled back, the follow-up committed)", got)
			}
		})
	}
}

// TestCommitCountersOneRule: Commits() counts every committed
// transaction, read-only ones included, on both runtimes; ResetCounters
// zeroes it.
func TestCommitCountersOneRule(t *testing.T) {
	for _, s := range runtimes() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			for i := 0; i < 3; i++ {
				if err := s.rmw(0, nil); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2; i++ {
				if err := s.scan(); err != nil {
					t.Fatal(err)
				}
			}
			if s.commits() != 5 {
				t.Errorf("Commits=%d after 3 writers + 2 scans, want 5", s.commits())
			}
			s.reset()
			if s.commits() != 0 || s.aborts() != 0 {
				t.Errorf("after ResetCounters: Commits=%d Aborts=%d, want both 0", s.commits(), s.aborts())
			}
		})
	}
}

// TestCoreCountersExact: counters striped per thread add up exactly. Twice
// as many goroutines as stripes, so thread IDs alias, each run plain
// commits, commits after forced aborts, escalations (forced aborts up to
// the threshold) and read-only scans on a location of their own. The body
// counts its attempts, so the expected totals include any abort the
// runtime adds on its own: every attempt but a call's last aborted, and a
// call escalated exactly when it aborted escalateAfter times.
func TestCoreCountersExact(t *testing.T) {
	const escalateAfter, rounds = 3, 40
	threads := 2 * txn.CoreStripes

	type counted struct {
		name string
		// atomic runs one call on thread's own location: body at the top
		// of every attempt, then an increment (write) or a read.
		atomic      func(thread, tx uint16, write bool, body func()) error
		progress    func() progress.Stats
		commits     func() uint64
		aborts      func() uint64
		resetCounts func()
	}
	var rts []counted
	{
		s := tl2.New(tl2.Options{EscalateAfter: escalateAfter, WatchdogWindow: -1})
		vars := make([]*tl2.Var, threads)
		for i := range vars {
			vars[i] = tl2.NewVar(0)
		}
		rts = append(rts, counted{"tl2", func(thread, tx uint16, write bool, body func()) error {
			v := vars[thread]
			return s.Atomic(thread, tx, func(tx *tl2.Tx) error {
				body()
				if x := tx.Read(v); write {
					tx.Write(v, x+1)
				}
				return nil
			})
		}, s.ProgressStats, s.Commits, s.Aborts, s.ResetCounters})
	}
	{
		s := libtm.New(libtm.Options{Mode: libtm.FullyOptimistic, EscalateAfter: escalateAfter, WatchdogWindow: -1})
		objs := make([]*libtm.Obj, threads)
		for i := range objs {
			objs[i] = libtm.NewObj(0)
		}
		rts = append(rts, counted{"libtm", func(thread, tx uint16, write bool, body func()) error {
			o := objs[thread]
			return s.Atomic(thread, tx, func(tx *libtm.Tx) error {
				body()
				if x := tx.Read(o); write {
					tx.Write(o, x+1)
				}
				return nil
			})
		}, s.ProgressStats, s.Commits, s.Aborts, s.ResetCounters})
	}

	for _, rt := range rts {
		rt := rt
		t.Run(rt.name, func(t *testing.T) {
			var commits, scans, aborts, escalations, forced atomic.Uint64
			// call runs one call that forces the given number of aborts
			// and tallies what its attempts say about it.
			call := func(thread, tx uint16, write bool, force int) error {
				n := 0
				err := rt.atomic(thread, tx, write, func() {
					if n++; n <= force {
						forced.Add(1)
						panic(txn.Abort{})
					}
				})
				aborts.Add(uint64(n - 1))
				commits.Add(1)
				switch {
				case n-1 >= escalateAfter:
					escalations.Add(1)
				case !write:
					scans.Add(1)
				}
				return err
			}
			var wg sync.WaitGroup
			errs := make(chan error, threads)
			for th := 0; th < threads; th++ {
				wg.Add(1)
				go func(th uint16) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						for _, err := range []error{
							call(th, 1, true, 0),
							call(th, 1, true, 1+r%(escalateAfter-1)),
							call(th, 2, true, escalateAfter),
							call(th, 9, false, 0),
						} {
							if err != nil {
								errs <- err
								return
							}
						}
					}
				}(uint16(th))
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			if forced.Load() == 0 || escalations.Load() < uint64(threads*rounds) || scans.Load() == 0 {
				t.Fatalf("vacuous run: forced %d aborts, %d escalations, %d read-only commits",
					forced.Load(), escalations.Load(), scans.Load())
			}
			want := commits.Load()
			if got := rt.commits(); got != want || want != uint64(4*threads*rounds) {
				t.Errorf("Commits = %d, want %d (%d calls)", got, want, 4*threads*rounds)
			}
			if got := rt.aborts(); got != aborts.Load() {
				t.Errorf("Aborts = %d, want %d (%d forced)", got, aborts.Load(), forced.Load())
			}
			if got := rt.progress().Escalations; got != escalations.Load() {
				t.Errorf("Escalations = %d, want %d", got, escalations.Load())
			}

			rt.resetCounts()
			if c, a := rt.commits(), rt.aborts(); c != 0 || a != 0 {
				t.Errorf("after ResetCounters: Commits=%d Aborts=%d, want both 0", c, a)
			}
			// Escalations are a progress counter: they describe the STM's
			// lifetime and survive the per-run reset.
			if got := rt.progress().Escalations; got != escalations.Load() {
				t.Errorf("Escalations after ResetCounters = %d, want the lifetime %d", got, escalations.Load())
			}
		})
	}
}
