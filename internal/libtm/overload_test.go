package libtm

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"gstm/internal/fault"
	"gstm/internal/overload"
	"gstm/internal/tts"
)

// stormLimiter returns a limiter whose every Acquire sheds.
func stormLimiter(t *testing.T) *overload.Limiter {
	t.Helper()
	inj := fault.NewInjector(1).Set(fault.ShedStorm, fault.Rule{Every: 1})
	return overload.New(overload.Options{MaxInflight: 8, Inject: inj})
}

func TestOverloadShedBeforeRuntime(t *testing.T) {
	lim := stormLimiter(t)
	s := New(Options{Mode: FullyOptimistic, Overload: lim, YieldEvery: -1})
	o := NewObj(0)
	ran := false
	err := s.Atomic(0, 1, func(tx *Tx) error {
		ran = true
		tx.Write(o, 1)
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
	if o.Value() != 0 {
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
	s := New(Options{Mode: FullyOptimistic, Overload: lim, YieldEvery: -1})
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
	s := New(Options{Mode: FullyOptimistic, Overload: lim, YieldEvery: -1})
	o := NewObj(0)
	for i := 0; i < 10; i++ {
		if err := s.Atomic(0, 1, func(tx *Tx) error {
			tx.Write(o, tx.Read(o)+1)
			return nil
		}); err != nil {
			t.Fatalf("atomic %d: %v", i, err)
		}
	}
	if o.Value() != 10 {
		t.Fatalf("value = %d", o.Value())
	}
	st := lim.Stats()
	if st.Acquires != 10 || st.Inflight != 0 {
		t.Fatalf("limiter ledger: %+v", st)
	}
}

func TestAtomicPriPriorityReachesLimiter(t *testing.T) {
	lim := overload.New(overload.Options{MaxInflight: 1, MinInflight: 1})
	s := New(Options{Mode: FullyOptimistic, Overload: lim, YieldEvery: -1})
	o := NewObj(0)
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
			tx.Write(o, 1)
			return nil
		})
	}()
	<-blockerIn
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

func TestOverloadDeadlineWhileQueuedIsDeadline(t *testing.T) {
	lim := overload.New(overload.Options{MaxInflight: 1, MinInflight: 1})
	s := New(Options{Mode: FullyOptimistic, Overload: lim, YieldEvery: -1})
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
