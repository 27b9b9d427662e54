package txn

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"gstm/internal/fault"
	"gstm/internal/overload"
	"gstm/internal/tts"
)

// Conformance table for the driver, run against a scripted fake policy
// with no STM underneath: every row fixes what the body and the commit
// do on each attempt and checks what the driver called, counted and
// returned.

var (
	errRetry = errors.New("fake: retry limit")
	errDead  = errors.New("fake: deadline")
	errUser  = errors.New("user error")
)

// fakeTx is the fake policy's descriptor.
type fakeTx struct{ mode Mode }

// fake is a scripted Policy: commit panics with Abort for the first
// aborts Optimistic commits, then succeeds. It logs every call.
type fake struct {
	aborts int
	log    []string
}

func (f *fake) note(s string) { f.log = append(f.log, s) }
func (f *fake) count(s string) (n int) {
	for _, l := range f.log {
		if l == s {
			n++
		}
	}
	return n
}

func (f *fake) Acquire(tts.Pair, <-chan struct{}) *fakeTx { f.note("acquire"); return &fakeTx{} }
func (f *fake) Begin(tx *fakeTx, _ uint64, _ Monitor, m Mode) {
	tx.mode = m
	f.note("begin:" + [...]string{"optimistic", "irrevocable"}[m])
}
func (f *fake) Commit(tx *fakeTx) {
	if tx.mode != Irrevocable && f.aborts > 0 {
		f.aborts--
		f.note("commit:abort")
		panic(Abort{Killer: 7})
	}
	f.note("commit")
}
func (f *fake) Release(*fakeTx)      { f.note("release") }
func (f *fake) Backoff(*fakeTx, int) { f.note("backoff") }
func (f *fake) Recycle(*fakeTx)      { f.note("recycle") }

// gateProbe counts every gate surface.
type gateProbe struct{ admits, irrevAdmits, sheds int }

func (g *gateProbe) Admit(tts.Pair)            { g.admits++ }
func (g *gateProbe) AdmitIrrevocable(tts.Pair) { g.irrevAdmits++ }
func (g *gateProbe) NoteShed(tts.Pair)         { g.sheds++ }

// tracerProbe counts transaction-level events.
type tracerProbe struct{ commits, aborts int }

func (t *tracerProbe) OnCommit(uint64, tts.Pair) { t.commits++ }
func (t *tracerProbe) OnAbort(tts.Pair, uint64)  { t.aborts++ }

func newCore(cfg Config) *Core {
	cfg.ErrRetryLimit, cfg.ErrDeadline = errRetry, errDead
	if cfg.WatchdogWindow == 0 {
		cfg.WatchdogWindow = -1
	}
	c := &Core{}
	c.Init(cfg)
	return c
}

func TestDriverConformance(t *testing.T) {
	pair := tts.Pair{Tx: 5, Thread: 1}
	expiredCtx, cancel := context.WithCancel(context.Background())
	cancel()
	ok := func(*fakeTx) error { return nil }

	rows := []struct {
		name  string
		cfg   Config
		lim   overload.Options // attached when limited
		limit bool
		// prefill takes the limiter's only token before the call, so
		// the call queues for admission.
		prefill bool
		aborts  int
		ctx     context.Context
		body    func(*fakeTx) error
		// wantErr lists sentinels the result must match (none = nil).
		wantErr []error
		wantLog string // space-joined policy calls
		check   func(t *testing.T, c *Core, g *gateProbe, tr *tracerProbe, lim *overload.Limiter)
	}{
		{
			name: "commit first try", body: ok,
			wantLog: "acquire begin:optimistic commit recycle",
			check: func(t *testing.T, c *Core, g *gateProbe, tr *tracerProbe, _ *overload.Limiter) {
				if c.Commits() != 1 || c.Aborts() != 0 || g.admits != 1 || tr.commits != 1 {
					t.Errorf("commits=%d aborts=%d admits=%d traced=%d, want 1 0 1 1", c.Commits(), c.Aborts(), g.admits, tr.commits)
				}
			},
		},
		{
			name: "user error: no retry, release called", limit: true,
			body:    func(*fakeTx) error { return errUser },
			wantErr: []error{errUser},
			wantLog: "acquire begin:optimistic release recycle",
			check: func(t *testing.T, c *Core, _ *gateProbe, tr *tracerProbe, _ *overload.Limiter) {
				if c.Commits() != 0 || c.Aborts() != 0 || tr.aborts != 0 {
					t.Errorf("a user error was counted: commits=%d aborts=%d traced aborts=%d", c.Commits(), c.Aborts(), tr.aborts)
				}
			},
		},
		{
			name: "retry then commit", aborts: 2, body: ok, limit: true,
			cfg:     Config{EscalateAfter: -1},
			wantLog: "acquire begin:optimistic commit:abort release backoff begin:optimistic commit:abort release backoff begin:optimistic commit recycle",
			check: func(t *testing.T, c *Core, g *gateProbe, tr *tracerProbe, _ *overload.Limiter) {
				if c.Commits() != 1 || c.Aborts() != 2 || g.admits != 3 || tr.aborts != 2 {
					t.Errorf("commits=%d aborts=%d admits=%d traced aborts=%d, want 1 2 3 2", c.Commits(), c.Aborts(), g.admits, tr.aborts)
				}
			},
		},
		{
			name: "MaxRetries", aborts: 100, body: ok, limit: true,
			cfg:     Config{MaxRetries: 2, EscalateAfter: -1},
			wantErr: []error{errRetry},
			wantLog: "acquire begin:optimistic commit:abort release backoff begin:optimistic commit:abort release backoff begin:optimistic commit:abort release recycle",
		},
		{
			name: "ctx expired before admission", ctx: expiredCtx, body: ok, limit: true,
			lim: overload.Options{MaxInflight: 1}, prefill: true,
			wantErr: []error{errDead, context.Canceled},
			check: func(t *testing.T, c *Core, _ *gateProbe, _ *tracerProbe, _ *overload.Limiter) {
				if got := c.ProgressStats().DeadlineExceeded; got != 1 {
					t.Errorf("DeadlineExceeded = %d, want 1", got)
				}
			},
		},
		{
			name: "ctx expired after admission", ctx: expiredCtx, body: ok, limit: true,
			wantErr: []error{errDead, context.Canceled},
			wantLog: "acquire recycle",
		},
		{
			name: "escalation at the threshold", aborts: 100, body: ok, limit: true,
			cfg:     Config{EscalateAfter: 2},
			wantLog: "acquire begin:optimistic commit:abort release backoff begin:optimistic commit:abort release backoff begin:irrevocable commit recycle",
			check: func(t *testing.T, c *Core, g *gateProbe, _ *tracerProbe, _ *overload.Limiter) {
				if g.admits != 2 || g.irrevAdmits != 1 {
					t.Errorf("gate saw %d Admit and %d AdmitIrrevocable, want 2 and 1", g.admits, g.irrevAdmits)
				}
				if ps := c.ProgressStats(); ps.Escalations != 1 || c.Commits() != 1 {
					t.Errorf("escalations=%d commits=%d, want 1 1", ps.Escalations, c.Commits())
				}
				if c.Irrev.Active() {
					t.Error("irrevocable token still held after the call")
				}
			},
		},
		{
			name: "escalated user error releases locks and token", aborts: 100, limit: true,
			cfg: Config{EscalateAfter: 1},
			body: func(tx *fakeTx) error {
				if tx.mode == Irrevocable {
					return errUser
				}
				return nil
			},
			wantErr: []error{errUser},
			wantLog: "acquire begin:optimistic commit:abort release backoff begin:irrevocable release recycle",
			check: func(t *testing.T, c *Core, _ *gateProbe, _ *tracerProbe, _ *overload.Limiter) {
				if c.Irrev.Active() {
					t.Error("irrevocable token still held after a user error")
				}
			},
		},
		{
			name: "shed", body: ok, limit: true,
			lim:     overload.Options{MaxInflight: 1, Inject: fault.NewInjector(1).Set(fault.ShedStorm, fault.Rule{Every: 1})},
			wantErr: []error{overload.ErrShed},
			check: func(t *testing.T, c *Core, g *gateProbe, _ *tracerProbe, _ *overload.Limiter) {
				if g.sheds != 1 || g.admits != 0 || c.ProgressStats().Sheds != 1 {
					t.Errorf("NoteShed=%d Admit=%d Sheds=%d, want 1 0 1", g.sheds, g.admits, c.ProgressStats().Sheds)
				}
			},
		},
	}
	for _, r := range rows {
		r := r
		t.Run(r.name, func(t *testing.T) {
			var lim *overload.Limiter
			if r.limit {
				if r.lim.MaxInflight == 0 {
					r.lim.MaxInflight = 4
				}
				r.lim.Mode = overload.ModeFixed
				lim = overload.New(r.lim)
				r.cfg.Overload = lim
			}
			if r.prefill {
				if err := lim.Acquire(context.Background(), overload.PriNormal); err != nil {
					t.Fatal(err)
				}
			}
			c := newCore(r.cfg)
			g, tr, f := &gateProbe{}, &tracerProbe{}, &fake{aborts: r.aborts}
			c.SetGate(g)
			c.SetTracer(tr)

			var err error
			if r.ctx != nil {
				err = RunCtx[*fakeTx](r.ctx, c, f, pair, overload.PriNormal, r.body)
			} else {
				err = Run[*fakeTx](c, f, pair, r.body)
			}
			if len(r.wantErr) == 0 && err != nil {
				t.Fatalf("err = %v, want nil", err)
			}
			for _, want := range r.wantErr {
				if !errors.Is(err, want) {
					t.Errorf("err = %v, want it to wrap %v", err, want)
				}
			}
			if got := strings.Join(f.log, " "); got != r.wantLog {
				t.Errorf("policy calls:\n got  %s\n want %s", got, r.wantLog)
			}
			if r.prefill {
				lim.Release(lim.Now(), false)
			}
			if lim != nil {
				if st := lim.Stats(); st.Inflight != 0 || st.Waiting != 0 {
					t.Errorf("limiter ledger not drained: %d in flight, %d waiting", st.Inflight, st.Waiting)
				}
			}
			if r.check != nil {
				r.check(t, c, g, tr, lim)
			}
		})
	}
}

// TestForeignPanicReleasesEverything: a panic out of the body that is
// not the driver's own is re-raised only after the policy's Release,
// the irrevocable token and the admission token have all been let go —
// and the descriptor is not recycled.
func TestForeignPanicReleasesEverything(t *testing.T) {
	for _, escalated := range []bool{false, true} {
		lim := overload.New(overload.Options{MaxInflight: 2, Mode: overload.ModeFixed})
		c := newCore(Config{EscalateAfter: 1, Overload: lim})
		f := &fake{aborts: 1}
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("recovered %v, want the body's own panic value", r)
				}
			}()
			_ = Run[*fakeTx](c, f, tts.Pair{}, func(tx *fakeTx) error {
				if !escalated || tx.mode == Irrevocable {
					panic("boom")
				}
				return nil
			})
		}()
		if f.count("release") == 0 || f.log[len(f.log)-1] != "release" {
			t.Errorf("escalated=%v: policy calls %v, want to end in release", escalated, f.log)
		}
		if f.count("recycle") != 0 {
			t.Errorf("escalated=%v: descriptor recycled after a panic", escalated)
		}
		if c.Irrev.Active() {
			t.Errorf("escalated=%v: irrevocable token leaked", escalated)
		}
		if st := lim.Stats(); st.Inflight != 0 {
			t.Errorf("escalated=%v: admission token leaked (%d in flight)", escalated, st.Inflight)
		}
	}
}

// TestWatchdogHalvesAndRestoresThreshold drives the counters directly
// and checks the verdict → threshold transitions.
func TestWatchdogHalvesAndRestoresThreshold(t *testing.T) {
	c := newCore(Config{EscalateAfter: 64, WatchdogWindow: time.Millisecond})
	c.observeWatchdog() // anchor the first window
	c.stripe(0).aborts.Add(2)
	c.stripe(coreStripes + 1).aborts.Add(1)
	time.Sleep(2 * time.Millisecond)
	c.observeWatchdog() // zero-commit window: trip
	if th := c.escThreshold.Load(); th != 32 {
		t.Fatalf("threshold after trip = %d, want 32", th)
	}
	if got := c.ProgressStats().WatchdogTrips; got != 1 {
		t.Fatalf("trips = %d, want 1", got)
	}
	c.stripe(1).commits.Add(2)
	c.stripe(coreStripes - 1).commits.Add(1)
	time.Sleep(2 * time.Millisecond)
	c.observeWatchdog() // healthy window: restore the configured value
	if th := c.escThreshold.Load(); th != 64 {
		t.Fatalf("threshold after healthy window = %d, want restored 64", th)
	}
}

func TestWatchdogThresholdFloor(t *testing.T) {
	c := newCore(Config{EscalateAfter: 2, WatchdogWindow: time.Millisecond})
	for i := 0; i < 5; i++ {
		c.observeWatchdog()
		c.stripe(uint16(i)).aborts.Add(1)
		time.Sleep(2 * time.Millisecond)
	}
	c.observeWatchdog()
	if th := c.escThreshold.Load(); th != 1 {
		t.Fatalf("threshold = %d, want floor 1", th)
	}
}

// TestInitResolvesDefaults pins the zero/negative conventions in the
// one place they are implemented. The interleaving emulation defaults on
// only where it is needed: one P, or a scheduler hook that serializes the
// threads.
func TestInitResolvesDefaults(t *testing.T) {
	hook := func() {}
	for _, r := range []struct {
		procs      int
		cfg        Config
		yieldEvery int
		threshold  int64
		watchdog   bool
	}{
		{1, Config{}, defaultYieldEvery, DefaultEscalateAfter, true},
		{2, Config{}, -1, DefaultEscalateAfter, true},
		{4, Config{}, -1, DefaultEscalateAfter, true},
		{2, Config{Yield: hook}, defaultYieldEvery, DefaultEscalateAfter, true},
		{1, Config{YieldEvery: -1, EscalateAfter: -1, WatchdogWindow: -1}, -1, -1, false},
		{2, Config{YieldEvery: 9, EscalateAfter: 3, WatchdogWindow: time.Second}, 9, 3, true},
		{1, Config{YieldEvery: 9}, 9, DefaultEscalateAfter, true},
		{2, Config{YieldEvery: -1, Yield: hook}, -1, DefaultEscalateAfter, true},
	} {
		prev := runtime.GOMAXPROCS(r.procs)
		c := &Core{}
		got := c.Init(r.cfg)
		runtime.GOMAXPROCS(prev)
		if got.YieldEvery != r.yieldEvery {
			t.Errorf("GOMAXPROCS %d, %+v: YieldEvery resolved to %d, want %d",
				r.procs, r.cfg, got.YieldEvery, r.yieldEvery)
		}
		if th := c.ProgressStats().EscalateThreshold; th != r.threshold {
			t.Errorf("%+v: threshold %d, want %d", r.cfg, th, r.threshold)
		}
		if (c.watchdog != nil) != r.watchdog {
			t.Errorf("%+v: watchdog armed = %v, want %v", r.cfg, c.watchdog != nil, r.watchdog)
		}
	}
}

// TestYieldEveryForOversubscription: a caller that knows its thread count
// keeps the emulation exactly where threads outnumber the Ps, and leaves
// everything else to Init's rule.
func TestYieldEveryForOversubscription(t *testing.T) {
	for _, r := range []struct{ procs, threads, want int }{
		{2, 2, 0}, {2, 1, 0}, {4, 4, 0}, {2, 3, defaultYieldEvery}, {2, 8, defaultYieldEvery}, {1, 2, defaultYieldEvery},
	} {
		prev := runtime.GOMAXPROCS(r.procs)
		got := YieldEveryFor(r.threads)
		runtime.GOMAXPROCS(prev)
		if got != r.want {
			t.Errorf("GOMAXPROCS %d, %d threads: YieldEveryFor = %d, want %d", r.procs, r.threads, got, r.want)
		}
	}
}
