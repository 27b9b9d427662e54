package overload

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"gstm/internal/fault"
	"gstm/internal/race"
)

// fakeClock is a hand-advanced clock for deterministic window tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestFastPathAcquireRelease(t *testing.T) {
	l := New(Options{MaxInflight: 4})
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if err := l.Acquire(ctx, PriNormal); err != nil {
			t.Fatalf("acquire %d under the cap: %v", i, err)
		}
	}
	if got := l.Stats().Inflight; got != 4 {
		t.Fatalf("inflight = %d, want 4", got)
	}
	start := l.Now()
	for i := 0; i < 4; i++ {
		l.Release(start, true)
	}
	st := l.Stats()
	if st.Inflight != 0 {
		t.Fatalf("inflight after releases = %d", st.Inflight)
	}
	if st.Sheds != 0 || st.Waits != 0 {
		t.Fatalf("uncontended run shed or waited: %+v", st)
	}
}

func TestNilLimiterIsNoOp(t *testing.T) {
	var l *Limiter
	if err := l.Acquire(context.Background(), PriLow); err != nil {
		t.Fatalf("nil Acquire: %v", err)
	}
	l.Release(time.Time{}, true)
	l.NoteAbort()
	l.NotePressure()
	if s := l.Stats(); s != (Stats{}) {
		t.Fatalf("nil Stats = %+v", s)
	}
	if l.PredictWait() != 0 || l.Limit() != 0 {
		t.Fatal("nil accessors not zero")
	}
	l.Reset()
}

// saturate fills the limiter to its cap and returns the release start.
func saturate(t *testing.T, l *Limiter) time.Time {
	t.Helper()
	for l.Stats().Inflight < l.Limit() {
		if err := l.Acquire(context.Background(), PriCritical); err != nil {
			t.Fatalf("saturating acquire: %v", err)
		}
	}
	return l.Now()
}

func TestDeadlineShedDistinguishable(t *testing.T) {
	clk := newFakeClock()
	l := New(Options{MaxInflight: 2, Now: clk.now})
	start := saturate(t, l)
	// Seed the execution estimate: 1ms per call.
	l.inflight.Add(1)
	l.Release(start.Add(-time.Millisecond), true)

	ctx, cancel := context.WithDeadline(context.Background(), clk.now().Add(50*time.Microsecond))
	defer cancel()
	err := l.Acquire(ctx, PriCritical)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("short-deadline acquire on a full limiter = %v, want ErrShed", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("shed error must not read as a context deadline: the call never ran")
	}
	st := l.Stats()
	if st.Sheds != 1 || st.ShedDeadline != 1 {
		t.Fatalf("shed ledger: %+v", st)
	}
}

func TestNoDeadlineNeverDeadlineSheds(t *testing.T) {
	clk := newFakeClock()
	l := New(Options{MaxInflight: 1, Now: clk.now})
	saturate(t, l)
	// Without a deadline the only shed trigger is backlog; a lone
	// PriCritical waiter has a 2×limit budget, so it must wait, not
	// shed. Release the token from another goroutine to let it in.
	done := make(chan error, 1)
	go func() { done <- l.Acquire(context.Background(), PriCritical) }()
	time.Sleep(5 * time.Millisecond)
	l.Release(l.Now(), true)
	if err := <-done; err != nil {
		t.Fatalf("waiter got %v, want admission", err)
	}
}

func TestPriorityShedOrder(t *testing.T) {
	clk := newFakeClock()
	l := New(Options{MaxInflight: 1, MinInflight: 1, Now: clk.now})
	saturate(t, l)
	// Backlog budget is (pri+1)×limit = pri+1 waiters. Park one
	// critical waiter to occupy the queue, then probe each class.
	release := make(chan struct{})
	parked := make(chan error, 1)
	go func() { parked <- l.Acquire(context.Background(), PriCritical) }()
	for l.Stats().Waiting == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	// With one waiter queued, a PriLow arrival sees waiting=2 > 1×1 and
	// sheds; a PriNormal arrival sees 2 ≤ 2×1 — it would wait, so don't
	// probe it with a blocking call; assert only the shed side plus the
	// already-parked critical waiter surviving.
	err := l.Acquire(context.Background(), PriLow)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("PriLow behind a backlog = %v, want ErrShed", err)
	}
	if st := l.Stats(); st.ShedBacklog != 1 {
		t.Fatalf("backlog shed ledger: %+v", st)
	}
	close(release)
	l.Release(l.Now(), true)
	if err := <-parked; err != nil {
		t.Fatalf("critical waiter got %v", err)
	}
}

func TestAIMDBackoffOnAbortStorm(t *testing.T) {
	clk := newFakeClock()
	l := New(Options{MaxInflight: 16, MinInflight: 2, Window: time.Millisecond, Now: clk.now})
	ctx := context.Background()
	// First release anchors the window; subsequent windows see an
	// abort-dominated stream and must halve the limit to the floor.
	step := func(aborts int, committed bool) {
		if err := l.Acquire(ctx, PriNormal); err != nil {
			t.Fatalf("acquire: %v", err)
		}
		for i := 0; i < aborts; i++ {
			l.NoteAbort()
		}
		start := clk.now()
		clk.advance(2 * time.Millisecond) // past the window every release
		l.Release(start, committed)
	}
	step(0, true) // anchor
	limits := []int64{l.Limit()}
	for i := 0; i < 6; i++ {
		step(50, false)
		limits = append(limits, l.Limit())
	}
	if got := l.Limit(); got != 2 {
		t.Fatalf("limit after abort storm = %d (trajectory %v), want floor 2", got, limits)
	}
	if st := l.Stats(); st.Backoffs == 0 {
		t.Fatalf("no backoffs recorded: %+v", st)
	}
}

func TestAIMDAdditiveGrowth(t *testing.T) {
	clk := newFakeClock()
	l := New(Options{MaxInflight: 16, MinInflight: 2, Window: time.Millisecond, Now: clk.now})
	// Collapse first so there is headroom to grow back.
	l.limit.Store(4)
	ctx := context.Background()
	commit := func() {
		if err := l.Acquire(ctx, PriNormal); err != nil {
			t.Fatalf("acquire: %v", err)
		}
		start := clk.now()
		clk.advance(2 * time.Millisecond)
		l.Release(start, true)
	}
	commit() // anchor
	before := l.Limit()
	for i := 0; i < 5; i++ {
		commit()
	}
	after := l.Limit()
	if after != before+5 {
		t.Fatalf("limit grew %d → %d over 5 healthy windows, want +5 (additive)", before, after)
	}
	if st := l.Stats(); st.Growths != uint64(after-before) {
		t.Fatalf("growth ledger: %+v", st)
	}
}

func TestWatchdogPressureHalvesLimit(t *testing.T) {
	clk := newFakeClock()
	l := New(Options{MaxInflight: 16, MinInflight: 2, Window: time.Millisecond, Now: clk.now})
	ctx := context.Background()
	roundtrip := func() {
		if err := l.Acquire(ctx, PriNormal); err != nil {
			t.Fatalf("acquire: %v", err)
		}
		start := clk.now()
		clk.advance(2 * time.Millisecond)
		l.Release(start, true)
	}
	roundtrip() // anchor
	roundtrip() // healthy window establishes the gradient baseline
	before := l.Limit()
	l.NotePressure()
	roundtrip()
	if got := l.Limit(); got != before/2 {
		t.Fatalf("limit after pressure window = %d, want %d", got, before/2)
	}
}

func TestCollapseDetectorGradient(t *testing.T) {
	var d collapseDetector
	if d.observe(100, 4, 0.5) {
		t.Fatal("first window can never collapse (nothing to compare)")
	}
	if d.observe(90, 4, 0.5) {
		t.Fatal("10% dip is not a collapse at factor 0.5")
	}
	if !d.observe(40, 4, 0.5) {
		t.Fatal("throughput halved at equal inflight: collapse")
	}
	// After a backoff the inflight drops; a throughput drop with less
	// load is expected, not collapse.
	if d.observe(10, 1, 0.5) {
		t.Fatal("lower inflight exempts the window")
	}
	d.reset()
	if d.observe(1, 8, 0.5) {
		t.Fatal("reset must disarm the detector")
	}
}

func TestShedStormInjection(t *testing.T) {
	inj := fault.NewInjector(7).Set(fault.ShedStorm, fault.Rule{Every: 1})
	l := New(Options{MaxInflight: 8, Inject: inj})
	err := l.Acquire(context.Background(), PriCritical)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("shed-storm acquire = %v, want ErrShed", err)
	}
	if st := l.Stats(); st.ShedStorm != 1 || st.Inflight != 0 {
		t.Fatalf("storm ledger: %+v", st)
	}
}

func TestLoadSpikeForcesSaturatedPath(t *testing.T) {
	clk := newFakeClock()
	inj := fault.NewInjector(7).Set(fault.LoadSpike, fault.Rule{Every: 1})
	l := New(Options{MaxInflight: 8, Inject: inj, Now: clk.now})
	// Seed the execution estimate so the deadline forecast is armed.
	l.inflight.Add(1)
	l.Release(clk.now().Add(-time.Millisecond), true)
	ctx, cancel := context.WithDeadline(context.Background(), clk.now().Add(time.Microsecond))
	defer cancel()
	// The limiter is idle, but the spike forces the saturated path and
	// the hopeless deadline sheds.
	err := l.Acquire(ctx, PriNormal)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("load-spike acquire with hopeless deadline = %v, want ErrShed", err)
	}
	// Without a deadline the spiked call waits; headroom exists, so the
	// wait loop admits it on the first re-check.
	if err := l.Acquire(context.Background(), PriNormal); err != nil {
		t.Fatalf("load-spike acquire without deadline = %v, want admission", err)
	}
	if st := l.Stats(); st.Waits == 0 {
		t.Fatalf("spiked call never parked: %+v", st)
	}
}

func TestLimiterStallInjectionCounts(t *testing.T) {
	inj := fault.NewInjector(7).Set(fault.LimiterStall, fault.Rule{Every: 1})
	l := New(Options{MaxInflight: 1, Inject: inj})
	saturate(t, l)
	done := make(chan error, 1)
	go func() { done <- l.Acquire(context.Background(), PriCritical) }()
	for inj.Seen(fault.LimiterStall) == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	l.Release(l.Now(), true)
	if err := <-done; err != nil {
		t.Fatalf("stalled waiter got %v", err)
	}
	if inj.Fired(fault.LimiterStall) == 0 {
		t.Fatal("limiter-stall never fired inside the wait loop")
	}
}

func TestCtxExpiryWhileWaitingIsNotShed(t *testing.T) {
	l := New(Options{MaxInflight: 1})
	saturate(t, l)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	// No execution estimate yet, so the deadline forecast stays quiet
	// and the call parks until the context fires.
	err := l.Acquire(ctx, PriCritical)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired waiter = %v, want context.DeadlineExceeded", err)
	}
	if errors.Is(err, ErrShed) {
		t.Fatal("a queue timeout is a deadline outcome, not a shed")
	}
}

func TestParseMode(t *testing.T) {
	if m, err := ParseMode("aimd"); err != nil || m != ModeAIMD {
		t.Fatalf("aimd → %v, %v", m, err)
	}
	if m, err := ParseMode("fixed"); err != nil || m != ModeFixed {
		t.Fatalf("fixed → %v, %v", m, err)
	}
	if _, err := ParseMode("adaptive"); err == nil {
		t.Fatal("unknown mode must error")
	}
}

func TestFixedModeNeverMoves(t *testing.T) {
	clk := newFakeClock()
	l := New(Options{MaxInflight: 8, Mode: ModeFixed, Window: time.Millisecond, Now: clk.now})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := l.Acquire(ctx, PriNormal); err != nil {
			t.Fatalf("acquire: %v", err)
		}
		l.NoteAbort()
		start := clk.now()
		clk.advance(2 * time.Millisecond)
		l.Release(start, false)
	}
	if got := l.Limit(); got != 8 {
		t.Fatalf("fixed-mode limit moved to %d", got)
	}
}

func TestResetRestoresLimitAndCounters(t *testing.T) {
	clk := newFakeClock()
	l := New(Options{MaxInflight: 16, Window: time.Millisecond, Now: clk.now})
	l.limit.Store(3)
	l.sheds.Add(5)
	l.Reset()
	st := l.Stats()
	if st.Limit != 16 || st.Sheds != 0 {
		t.Fatalf("after Reset: %+v", st)
	}
}

func TestPriClampAndStrings(t *testing.T) {
	if clampPri(Pri(200)) != PriCritical {
		t.Fatal("out-of-range priority must clamp to critical")
	}
	for p, want := range map[Pri]string{PriLow: "low", PriNormal: "normal", PriHigh: "high", PriCritical: "critical"} {
		if p.String() != want {
			t.Fatalf("Pri(%d).String() = %q", p, p.String())
		}
	}
	if ModeAIMD.String() != "aimd" || ModeFixed.String() != "fixed" {
		t.Fatal("mode strings")
	}
}

// TestShedFastPathAllocFree pins the acceptance criterion: a shed —
// the path taken precisely when the system is drowning — must not
// allocate.
func TestShedFastPathAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	clk := newFakeClock()
	l := New(Options{MaxInflight: 1, Now: clk.now})
	saturate(t, l)
	// Seed the execution estimate so the deadline forecast sheds.
	l.inflight.Add(1)
	l.Release(clk.now().Add(-time.Millisecond), true)
	ctx, cancel := context.WithDeadline(context.Background(), clk.now().Add(time.Microsecond))
	defer cancel()
	if err := l.Acquire(ctx, PriNormal); !errors.Is(err, ErrShed) {
		t.Fatalf("setup: %v", err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if err := l.Acquire(ctx, PriNormal); err == nil {
			t.Fatal("saturated limiter admitted")
		}
	}); avg != 0 {
		t.Fatalf("shed path allocates %.1f allocs/op, want 0", avg)
	}

	inj := fault.NewInjector(3).Set(fault.ShedStorm, fault.Rule{Every: 1})
	ls := New(Options{MaxInflight: 8, Inject: inj})
	if avg := testing.AllocsPerRun(1000, func() {
		if err := ls.Acquire(context.Background(), PriLow); err == nil {
			t.Fatal("storm admitted")
		}
	}); avg != 0 {
		t.Fatalf("storm shed path allocates %.1f allocs/op, want 0", avg)
	}
}

func TestConcurrentAcquireReleaseInvariant(t *testing.T) {
	l := New(Options{MaxInflight: 4, Window: time.Millisecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 500; i++ {
				if err := l.Acquire(ctx, Pri(i%int(NumPri))); err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				if in := l.Stats().Inflight; in > 4 {
					t.Errorf("inflight %d exceeded cap 4", in)
					return
				}
				l.Release(l.Now(), i%3 != 0)
			}
		}()
	}
	wg.Wait()
	if in := l.Stats().Inflight; in != 0 {
		t.Fatalf("leaked %d tokens", in)
	}
}
