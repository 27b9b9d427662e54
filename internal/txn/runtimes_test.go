package txn_test

import (
	"testing"

	"gstm/internal/effect"
	"gstm/internal/libtm"
	"gstm/internal/tl2"
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
