package tl2

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gstm/internal/fault"
	"gstm/internal/progress"
	"gstm/internal/tts"
)

// abortStorm builds an injector that force-aborts every commit.
func abortStorm(seed uint64) *fault.Injector {
	return fault.NewInjector(seed).Set(fault.CommitAbort, fault.Rule{Every: 1})
}

func TestAtomicCtxCommitsWithLiveContext(t *testing.T) {
	s := New(Options{})
	v := NewVar(0)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.AtomicCtx(ctx, 0, 0, func(tx *Tx) error {
		tx.Write(v, tx.Read(v)+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if v.Value() != 1 {
		t.Errorf("value = %d, want 1", v.Value())
	}
}

func TestAtomicCtxNilContext(t *testing.T) {
	s := New(Options{})
	v := NewVar(0)
	var ctx context.Context // nil ctx tolerance is part of the API contract
	if err := s.AtomicCtx(ctx, 0, 0, func(tx *Tx) error {
		tx.Write(v, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicCtxExpiredContext(t *testing.T) {
	s := New(Options{EscalateAfter: -1})
	v := NewVar(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.AtomicCtx(ctx, 0, 0, func(tx *Tx) error {
		tx.Write(v, 1)
		return nil
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want to wrap context.Canceled", err)
	}
	if v.Value() != 0 {
		t.Errorf("cancelled transaction wrote: value = %d", v.Value())
	}
	if ps := s.ProgressStats(); ps.DeadlineExceeded != 1 {
		t.Errorf("DeadlineExceeded = %d, want 1", ps.DeadlineExceeded)
	}
}

func TestAtomicCtxDeadlineUnderAbortStorm(t *testing.T) {
	// With escalation disabled and every commit force-aborted, the only
	// way out is the deadline — the call must terminate with
	// ErrDeadline rather than hang.
	s := New(Options{Inject: abortStorm(1), EscalateAfter: -1, WatchdogWindow: -1})
	v := NewVar(0)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := s.AtomicCtx(ctx, 0, 0, func(tx *Tx) error {
		tx.Write(v, tx.Read(v)+1)
		return nil
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want to wrap context.DeadlineExceeded", err)
	}
}

func TestEscalationCommitsThroughAbortStorm(t *testing.T) {
	// Every regular commit is force-aborted; after EscalateAfter aborts
	// the call must take the irrevocable serial path (which bypasses
	// the injection hooks) and commit.
	s := New(Options{Inject: abortStorm(1), EscalateAfter: 3})
	v := NewVar(0)
	if err := s.AtomicCtx(context.Background(), 0, 0, func(tx *Tx) error {
		tx.Write(v, tx.Read(v)+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if v.Value() != 1 {
		t.Errorf("value = %d, want 1", v.Value())
	}
	if ps := s.ProgressStats(); ps.Escalations != 1 {
		t.Errorf("Escalations = %d, want 1", ps.Escalations)
	}
	if s.Commits() != 1 {
		t.Errorf("commits = %d, want 1", s.Commits())
	}
}

func TestEscalatedUserErrorRollsBack(t *testing.T) {
	s := New(Options{Inject: abortStorm(1), EscalateAfter: 2})
	v := NewVar(5)
	boom := errors.New("boom")
	calls := 0
	err := s.AtomicCtx(context.Background(), 0, 0, func(tx *Tx) error {
		calls++
		tx.Write(v, 99)
		if calls <= 2 {
			return nil // aborted by the injector; retried
		}
		return boom // escalated attempt: user error must roll back
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if v.Value() != 5 {
		t.Errorf("escalated rollback failed: value = %d, want 5", v.Value())
	}
	if ps := s.ProgressStats(); ps.Escalations != 0 {
		t.Errorf("Escalations = %d, want 0 (a user error is not a commit)", ps.Escalations)
	}
	// The rollback must have released the irrevocability token and the
	// Var's lock word: a direct spin-read of the lock must see it free.
	if l := v.lock.Load(); l&lockedBit != 0 {
		t.Errorf("Var lock word still held after escalated rollback: %#x", l)
	}
}

func TestEscalateTime(t *testing.T) {
	// Abort-count escalation effectively unreachable; time-based on.
	s := New(Options{Inject: abortStorm(1), EscalateAfter: 1 << 30,
		EscalateTime: 5 * time.Millisecond})
	v := NewVar(0)
	if err := s.AtomicCtx(context.Background(), 0, 0, func(tx *Tx) error {
		tx.Write(v, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ps := s.ProgressStats(); ps.Escalations != 1 {
		t.Errorf("Escalations = %d, want 1", ps.Escalations)
	}
}

func TestDefaultDeadlineOnPlainAtomic(t *testing.T) {
	s := New(Options{Inject: abortStorm(1), EscalateAfter: -1, WatchdogWindow: -1,
		DefaultDeadline: 30 * time.Millisecond})
	v := NewVar(0)
	err := s.Atomic(0, 0, func(tx *Tx) error {
		tx.Write(v, 1)
		return nil
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline via DefaultDeadline", err)
	}
}

func TestWatchdogArmsEscalationWhenDisabled(t *testing.T) {
	// Escalation is configured off, yet the watchdog must arm it under
	// a zero-commit storm — liveness over configuration — and the call
	// must then commit via the serial path.
	s := New(Options{Inject: abortStorm(1), EscalateAfter: -1,
		WatchdogWindow: time.Millisecond})
	v := NewVar(0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.AtomicCtx(ctx, 0, 0, func(tx *Tx) error {
		tx.Write(v, tx.Read(v)+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	ps := s.ProgressStats()
	if ps.WatchdogTrips == 0 {
		t.Error("watchdog never tripped under a zero-commit storm")
	}
	if ps.Escalations != 1 {
		t.Errorf("Escalations = %d, want 1", ps.Escalations)
	}
	if ps.EscalateThreshold <= 0 || ps.EscalateThreshold > DefaultEscalateAfter {
		t.Errorf("threshold = %d, want armed in (0, %d]", ps.EscalateThreshold, DefaultEscalateAfter)
	}
}

// irrevGateProbe records both regular and irrevocable admissions.
type irrevGateProbe struct {
	admits      atomic.Uint64
	irrevAdmits atomic.Uint64
}

func (g *irrevGateProbe) Admit(tts.Pair)            { g.admits.Add(1) }
func (g *irrevGateProbe) AdmitIrrevocable(tts.Pair) { g.irrevAdmits.Add(1) }

// blockingAfterFirstGate is a plain Gate (no AdmitIrrevocable) whose
// Admit blocks forever from the second call on. The escalated path must
// bypass it entirely, so a correct run only ever reaches Admit once.
type blockingAfterFirstGate struct {
	calls atomic.Int32
}

func (g *blockingAfterFirstGate) Admit(tts.Pair) {
	if g.calls.Add(1) > 1 {
		select {} // the escalated path must never get here
	}
}

func TestEscalationConsultsIrrevocableGate(t *testing.T) {
	s := New(Options{Inject: abortStorm(1), EscalateAfter: 2})
	g := &irrevGateProbe{}
	s.SetGate(g)
	v := NewVar(0)
	if err := s.AtomicCtx(context.Background(), 0, 0, func(tx *Tx) error {
		tx.Write(v, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if g.irrevAdmits.Load() != 1 {
		t.Errorf("AdmitIrrevocable called %d times, want 1", g.irrevAdmits.Load())
	}
	if g.admits.Load() != 2 {
		t.Errorf("Admit called %d times, want 2 (the regular attempts)", g.admits.Load())
	}
}

func TestEscalationBypassesPlainGate(t *testing.T) {
	// A Gate without AdmitIrrevocable must be skipped on the escalated
	// path — consulting it there could deadlock the one transaction
	// that is guaranteed to commit.
	s := New(Options{Inject: abortStorm(1), EscalateAfter: 1})
	s.SetGate(&blockingAfterFirstGate{})
	v := NewVar(0)
	done := make(chan error, 1)
	go func() {
		done <- s.AtomicCtx(context.Background(), 0, 0, func(tx *Tx) error {
			tx.Write(v, 1)
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("escalated transaction hung on a plain Gate")
	}
	if v.Value() != 1 {
		t.Errorf("value = %d, want 1", v.Value())
	}
}

func TestStarvationLongTxEscalates(t *testing.T) {
	// One long read-write transaction spanning many Vars vs many short
	// writers hammering the same Vars: without escalation the long
	// transaction's validation keeps failing; with it, the call must
	// commit within its deadline.
	const nvars = 64
	s := New(Options{EscalateAfter: 8})
	vars := make([]*Var, nvars)
	for i := range vars {
		vars[i] = NewVar(0)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				v := vars[(w*13+i)%nvars]
				if err := s.Atomic(uint16(1+w), 1, func(tx *Tx) error {
					tx.Write(v, tx.Read(v)+1)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.AtomicCtx(ctx, 0, 0, func(tx *Tx) error {
		for _, v := range vars {
			tx.Write(v, tx.Read(v)+1)
		}
		return nil
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("long transaction missed its deadline: %v", err)
	}
	// Post-run invariant: all locks released, the world consistent — a
	// follow-up snapshot transaction commits.
	if err := s.Atomic(0, 2, func(tx *Tx) error {
		for _, v := range vars {
			tx.Read(v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestStarvationUnderCommitAbortFault(t *testing.T) {
	// The same long-vs-short contention with the injector force-
	// aborting a fraction of commits: escalation must still rescue the
	// long transaction within its deadline, and the short writers must
	// always terminate with a commit or ErrDeadline — never hang.
	const nvars = 32
	inj := fault.NewInjector(7).Set(fault.CommitAbort, fault.Rule{PerMille: 300})
	s := New(Options{Inject: inj, EscalateAfter: 8})
	vars := make([]*Var, nvars)
	for i := range vars {
		vars[i] = NewVar(0)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				v := vars[(w*7+i)%nvars]
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				err := s.AtomicCtx(ctx, uint16(1+w), 1, func(tx *Tx) error {
					tx.Write(v, tx.Read(v)+1)
					return nil
				})
				cancel()
				if err != nil && !errors.Is(err, ErrDeadline) {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.AtomicCtx(ctx, 0, 0, func(tx *Tx) error {
		for _, v := range vars {
			tx.Write(v, tx.Read(v)+1)
		}
		return nil
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("long transaction missed its deadline under faults: %v", err)
	}
}

func TestLatencyRecorderCapturesPairs(t *testing.T) {
	s := New(Options{})
	rec := progress.NewLatencyRecorder()
	s.SetLatencyRecorder(rec)
	v := NewVar(0)
	for i := 0; i < 10; i++ {
		if err := s.Atomic(2, 3, func(tx *Tx) error {
			tx.Write(v, tx.Read(v)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.SetLatencyRecorder(nil)
	sums := rec.Summaries()
	if len(sums) != 1 {
		t.Fatalf("got %d pair summaries, want 1", len(sums))
	}
	pl := sums[0]
	if pl.Pair != (tts.Pair{Tx: 3, Thread: 2}) {
		t.Errorf("pair = %+v, want {Tx:3 Thread:2}", pl.Pair)
	}
	if pl.Count != 10 {
		t.Errorf("count = %d, want 10", pl.Count)
	}
	if pl.P50 < 0 || pl.P99 < pl.P50 {
		t.Errorf("percentiles out of order: p50=%v p99=%v", pl.P50, pl.P99)
	}
}

func TestBackoffJitterVaries(t *testing.T) {
	tx := &Tx{}
	seen := make(map[uint64]bool)
	for i := 0; i < 16; i++ {
		seen[tx.nextRand()] = true
	}
	if len(seen) != 16 {
		t.Errorf("xorshift produced %d distinct values in 16 draws", len(seen))
	}
	// Two fresh transactions seed independent streams.
	a, b := &Tx{}, &Tx{}
	if a.nextRand() == b.nextRand() {
		t.Error("two fresh transactions drew identical first jitter values")
	}
}
