package tl2

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"gstm/internal/fault"
	"gstm/internal/overload"
	"gstm/internal/race"
	"gstm/internal/tts"
)

// stormLimiter returns a limiter whose every Acquire sheds, via the
// shed-storm fault class.
func stormLimiter(t *testing.T) *overload.Limiter {
	t.Helper()
	inj := fault.NewInjector(1).Set(fault.ShedStorm, fault.Rule{Every: 1})
	return overload.New(overload.Options{MaxInflight: 8, Inject: inj})
}

func TestOverloadShedBeforeRuntime(t *testing.T) {
	lim := stormLimiter(t)
	s := New(Options{Overload: lim, YieldEvery: -1})
	v := NewVar(0)
	ran := false
	err := s.Atomic(0, 1, func(tx *Tx) error {
		ran = true
		tx.Write(v, 1)
		return nil
	})
	if !errors.Is(err, overload.ErrShed) {
		t.Fatalf("stormed Atomic = %v, want ErrShed", err)
	}
	if errors.Is(err, ErrDeadline) {
		t.Fatal("a shed must not read as ErrDeadline")
	}
	if ran {
		t.Fatal("shed transaction body ran")
	}
	if s.Commits() != 0 || s.Aborts() != 0 {
		t.Fatalf("shed touched the runtime: %d commits, %d aborts", s.Commits(), s.Aborts())
	}
	if ps := s.ProgressStats(); ps.Sheds != 1 {
		t.Fatalf("ProgressStats.Sheds = %d, want 1", ps.Sheds)
	}
	if v.Value() != 0 {
		t.Fatal("shed transaction wrote")
	}
}

// shedGateSpy records NoteShed notifications.
type shedGateSpy struct {
	mu    sync.Mutex
	sheds []tts.Pair
}

func (g *shedGateSpy) Admit(p tts.Pair) {}
func (g *shedGateSpy) NoteShed(p tts.Pair) {
	g.mu.Lock()
	g.sheds = append(g.sheds, p)
	g.mu.Unlock()
}

func TestOverloadShedNotifiesGate(t *testing.T) {
	lim := stormLimiter(t)
	s := New(Options{Overload: lim, YieldEvery: -1})
	spy := &shedGateSpy{}
	s.SetGate(spy)
	_ = s.Atomic(3, 7, func(tx *Tx) error { return nil })
	spy.mu.Lock()
	defer spy.mu.Unlock()
	if len(spy.sheds) != 1 || spy.sheds[0] != (tts.Pair{Tx: 7, Thread: 3}) {
		t.Fatalf("gate saw sheds %v, want [{7 3}]", spy.sheds)
	}
}

func TestOverloadNormalFlowCountsInflight(t *testing.T) {
	lim := overload.New(overload.Options{MaxInflight: 4})
	s := New(Options{Overload: lim, YieldEvery: -1})
	v := NewVar(0)
	for i := 0; i < 10; i++ {
		if err := s.Atomic(0, 1, func(tx *Tx) error {
			tx.Write(v, tx.Read(v)+1)
			return nil
		}); err != nil {
			t.Fatalf("atomic %d: %v", i, err)
		}
	}
	if v.Value() != 10 {
		t.Fatalf("value = %d", v.Value())
	}
	st := lim.Stats()
	if st.Acquires != 10 || st.Inflight != 0 {
		t.Fatalf("limiter ledger: %+v", st)
	}
	if st.ExecEstimate <= 0 {
		t.Fatalf("no execution estimate after 10 commits: %+v", st)
	}
}

func TestAtomicPriPriorityReachesLimiter(t *testing.T) {
	// A saturated limiter with a parked queue sheds PriLow but lets
	// PriCritical wait: observable end-to-end through AtomicPri.
	lim := overload.New(overload.Options{MaxInflight: 1, MinInflight: 1})
	s := New(Options{Overload: lim, YieldEvery: -1})
	v := NewVar(0)
	blockerIn := make(chan struct{})
	blockerGo := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- s.Atomic(0, 1, func(tx *Tx) error {
			select {
			case <-blockerIn:
			default:
				close(blockerIn)
			}
			<-blockerGo
			tx.Write(v, 1)
			return nil
		})
	}()
	<-blockerIn
	// Park a critical waiter to fill the backlog budget for PriLow.
	waiter := make(chan error, 1)
	go func() {
		waiter <- s.AtomicPri(context.Background(), 1, 2, overload.PriCritical, func(tx *Tx) error { return nil })
	}()
	for lim.Stats().Waiting == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	err := s.AtomicPri(context.Background(), 2, 3, overload.PriLow, func(tx *Tx) error { return nil })
	if !errors.Is(err, overload.ErrShed) {
		t.Fatalf("PriLow behind backlog = %v, want ErrShed", err)
	}
	close(blockerGo)
	if err := <-done; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	if err := <-waiter; err != nil {
		t.Fatalf("critical waiter: %v", err)
	}
}

func TestOverloadShedPathAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	lim := stormLimiter(t)
	s := New(Options{Overload: lim, YieldEvery: -1})
	fn := func(tx *Tx) error { return nil }
	ctx := context.Background()
	if err := s.AtomicCtx(ctx, 0, 1, fn); !errors.Is(err, overload.ErrShed) {
		t.Fatalf("setup: %v", err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if err := s.AtomicCtx(ctx, 0, 1, fn); err == nil {
			t.Fatal("storm admitted")
		}
	}); avg != 0 {
		t.Fatalf("runtime shed path allocates %.1f allocs/op, want 0", avg)
	}
}

func TestOverloadDeadlineWhileQueuedIsDeadline(t *testing.T) {
	lim := overload.New(overload.Options{MaxInflight: 1, MinInflight: 1})
	s := New(Options{Overload: lim, YieldEvery: -1})
	hold := make(chan struct{})
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- s.Atomic(0, 1, func(tx *Tx) error {
			select {
			case <-started:
			default:
				close(started)
			}
			<-hold
			return nil
		})
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	err := s.AtomicCtx(ctx, 1, 2, func(tx *Tx) error { return nil })
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("queued past deadline = %v, want ErrDeadline", err)
	}
	if errors.Is(err, overload.ErrShed) {
		t.Fatal("queue timeout must not read as a shed")
	}
	if ps := s.ProgressStats(); ps.DeadlineExceeded != 1 || ps.Sheds != 0 {
		t.Fatalf("progress ledger: %+v", ps)
	}
	close(hold)
	if err := <-done; err != nil {
		t.Fatalf("blocker: %v", err)
	}
}
