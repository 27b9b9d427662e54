package txn_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"gstm/internal/effect"
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
	scan  func() error // certified read-only transaction (ID 9)
	value func() int64

	commits, roCommits, aborts func() uint64
	reset                      func()
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
	m := &effect.Manifest{Sites: []effect.Site{{Key: "test.scan", Tx: "scan", TxID: 9, Class: effect.ReadOnly}}}
	var out []stm
	{
		s := tl2.New(tl2.Options{MaxRetries: 50, EscalateAfter: -1, WatchdogWindow: -1, Manifest: m})
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
			commits: s.Commits, roCommits: s.ROCommits, aborts: s.Aborts, reset: s.ResetCounters,
		})
	}
	for name, mode := range libtmModes {
		s := libtm.New(libtm.Options{Mode: mode, MaxRetries: 50, EscalateAfter: -1, WatchdogWindow: -1, Manifest: m})
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
			commits: s.Commits, roCommits: s.ROCommits, aborts: s.Aborts, reset: s.ResetCounters,
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
// transaction, certified read-only ones included, on both runtimes;
// ROCommits() is the certified subset; ResetCounters zeroes both.
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
			if s.commits() != 5 || s.roCommits() != 2 {
				t.Errorf("Commits=%d ROCommits=%d after 3 writers + 2 certified scans, want 5 and 2", s.commits(), s.roCommits())
			}
			s.reset()
			if s.commits() != 0 || s.roCommits() != 0 || s.aborts() != 0 {
				t.Errorf("after ResetCounters: Commits=%d ROCommits=%d Aborts=%d, want all 0", s.commits(), s.roCommits(), s.aborts())
			}
		})
	}
}

// TestCoreCountersExact: counters striped per thread add up exactly. Twice
// as many goroutines as stripes, so thread IDs alias, each run plain
// commits, commits after forced aborts, escalations (forced aborts up to
// the threshold) and certified scans on a location of their own. The body
// counts its attempts, so the expected totals include any abort the
// runtime adds on its own: every attempt but a call's last aborted, and a
// call escalated exactly when it aborted escalateAfter times.
func TestCoreCountersExact(t *testing.T) {
	const escalateAfter, rounds = 3, 40
	threads := 2 * txn.CoreStripes
	m := &effect.Manifest{Sites: []effect.Site{{Key: "test.scan", Tx: "scan", TxID: 9, Class: effect.ReadOnly}}}

	type counted struct {
		name string
		// atomic runs one call on thread's own location: body at the top
		// of every attempt, then an increment (write) or a read.
		atomic      func(thread, tx uint16, write bool, body func()) error
		progress    func() progress.Stats
		commits     func() uint64
		roCommits   func() uint64
		aborts      func() uint64
		resetCounts func()
	}
	var rts []counted
	{
		s := tl2.New(tl2.Options{EscalateAfter: escalateAfter, WatchdogWindow: -1, Manifest: m})
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
		}, s.ProgressStats, s.Commits, s.ROCommits, s.Aborts, s.ResetCounters})
	}
	{
		s := libtm.New(libtm.Options{Mode: libtm.FullyOptimistic, EscalateAfter: escalateAfter, WatchdogWindow: -1, Manifest: m})
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
		}, s.ProgressStats, s.Commits, s.ROCommits, s.Aborts, s.ResetCounters})
	}

	for _, rt := range rts {
		rt := rt
		t.Run(rt.name, func(t *testing.T) {
			var commits, roCommits, aborts, escalations, forced atomic.Uint64
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
				switch {
				case n-1 >= escalateAfter:
					escalations.Add(1)
					commits.Add(1)
				case !write:
					roCommits.Add(1)
				default:
					commits.Add(1)
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

			if forced.Load() == 0 || escalations.Load() < uint64(threads*rounds) || roCommits.Load() == 0 {
				t.Fatalf("vacuous run: forced %d aborts, %d escalations, %d certified commits",
					forced.Load(), escalations.Load(), roCommits.Load())
			}
			want := commits.Load() + roCommits.Load()
			if got := rt.commits(); got != want || want != uint64(4*threads*rounds) {
				t.Errorf("Commits = %d, want %d (%d calls)", got, want, 4*threads*rounds)
			}
			if got := rt.roCommits(); got != roCommits.Load() {
				t.Errorf("ROCommits = %d, want %d", got, roCommits.Load())
			}
			if got := rt.aborts(); got != aborts.Load() {
				t.Errorf("Aborts = %d, want %d (%d forced)", got, aborts.Load(), forced.Load())
			}
			if got := rt.progress().Escalations; got != escalations.Load() {
				t.Errorf("Escalations = %d, want %d", got, escalations.Load())
			}

			rt.resetCounts()
			if c, ro, a := rt.commits(), rt.roCommits(), rt.aborts(); c != 0 || ro != 0 || a != 0 {
				t.Errorf("after ResetCounters: Commits=%d ROCommits=%d Aborts=%d, want all 0", c, ro, a)
			}
			// Escalations are a progress counter: they describe the STM's
			// lifetime and survive the per-run reset.
			if got := rt.progress().Escalations; got != escalations.Load() {
				t.Errorf("Escalations after ResetCounters = %d, want the lifetime %d", got, escalations.Load())
			}
		})
	}
}
