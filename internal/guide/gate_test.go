package guide

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"gstm/internal/model"
	"gstm/internal/tts"
)

// TestGateStress hammers the lock-free commit path, the CAS-published
// abort extension and the striped counters from four threads while a
// supervisor swaps models, quarantines, re-arms and reads Stats. Run
// under -race (scripts/check.sh does). At quiescence the counters must
// be exact and no hold may have been lost.
func TestGateStress(t *testing.T) {
	const (
		threads = 4
		perG    = 3000
	)
	c := New(twoStateModel(), Options{K: 2})

	// A deterministic prefix proves the model holds: (2,2) is outside
	// {<a0>}'s high-probability destinations.
	c.OnCommit(1, tts.Pair{Tx: 0, Thread: 0})
	c.Admit(tts.Pair{Tx: 2, Thread: 2})
	if st := c.Stats(); st.Holds != 1 {
		t.Fatalf("setup: the model does not hold: %+v", st)
	}

	var stop atomic.Bool
	var supervisor sync.WaitGroup
	supervisor.Add(1)
	go func() {
		defer supervisor.Done()
		models := []*model.TSA{twoStateModel(), skewedModel(pairC2, pairB1)}
		for i := 0; !stop.Load(); i++ {
			c.SwapModel(models[i%2])
			c.Quarantine()
			_ = c.Stats()
			c.Rearm()
			runtime.Gosched()
		}
	}()

	var workers sync.WaitGroup
	for w := 0; w < threads; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			p := tts.Pair{Tx: uint16(w), Thread: uint16(w)}
			victim := tts.Pair{Tx: uint16((w + 1) % threads), Thread: uint16((w + 1) % threads)}
			for i := 0; i < perG; i++ {
				c.Admit(p)
				inst := uint64(w+1)<<32 | uint64(i+1)
				c.OnCommit(inst, p)
				if i%3 == 0 {
					c.OnAbort(victim, inst)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { workers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("a worker never returned from the gate: lost hold")
	}
	stop.Store(true)
	supervisor.Wait()

	st := c.Stats()
	if want := uint64(threads*perG + 1); st.Admits != want {
		t.Errorf("Admits = %d, want %d (one per Admit call)", st.Admits, want)
	}
	if st.Admits != st.ImmediateAdmits+st.Holds+st.ReadOnlyAdmits {
		t.Errorf("partition broken at quiescence: %+v", st)
	}
	if st.ReadOnlyAdmits != 0 {
		t.Errorf("ReadOnlyAdmits = %d, want 0: no admit bypasses the gate", st.ReadOnlyAdmits)
	}
	if st.ModelSwaps == 0 {
		t.Error("the supervisor never swapped a model in")
	}
}

// TestHotPathLayout pins the layout the gate's speed rests on: no two
// threads' stripes share a cache line, each thread's latest-commit word
// lives in its own stripe, a snapshot has no field anybody writes after
// publishing it, and the one shared word commits write — the
// current-state pointer — sits at least a cache line away from every
// field read per transaction.
func TestHotPathLayout(t *testing.T) {
	const line = 64
	var st stripe
	if sz := unsafe.Sizeof(st); sz == 0 || sz%(2*line) != 0 {
		t.Errorf("sizeof(stripe) = %d, want a multiple of %d", sz, 2*line)
	}
	if end := unsafe.Offsetof(st.commit) + unsafe.Sizeof(st.commit); end > unsafe.Sizeof(st) {
		t.Errorf("stripe.commit ends at %d, past the stripe's %d bytes", end, unsafe.Sizeof(st))
	}
	var c Controller
	cur := unsafe.Offsetof(c.cur)
	if before := unsafe.Offsetof(c.perThread) + unsafe.Sizeof(c.perThread); cur < before+line {
		t.Errorf("cur at %d is within %d bytes of the read-mostly block ending at %d", cur, line, before)
	}
	if after := unsafe.Offsetof(c.mu); after < cur+line {
		t.Errorf("mu at %d is within %d bytes of cur at %d", after, line, cur)
	}
	snap := reflect.TypeOf(snapshot{})
	for i := 0; i < snap.NumField(); i++ {
		if f := snap.Field(i); f.Type.PkgPath() == "sync/atomic" || f.Name == "_" {
			t.Errorf("snapshot.%s (%v): a snapshot must be immutable once published, with nothing to pad", f.Name, f.Type)
		}
	}
	var h healthMonitor
	if cfg, cnt := unsafe.Offsetof(h.rearmWindows)+unsafe.Sizeof(h.rearmWindows), unsafe.Offsetof(h.admits); cnt < cfg+line {
		t.Errorf("healthMonitor.admits at %d is within %d bytes of the configuration ending at %d", cnt, line, cfg)
	}
}

// healthyAdmit records one healthy admit on thread's stripe without
// needing a state that admits it.
func healthyAdmit(c *Controller, thread int) {
	c.AdmitIrrevocable(tts.Pair{Tx: 1, Thread: uint16(thread)})
}

// TestBatchedHealthWindowTrips: at the default window every stripe
// gathers healthy admits before they reach the shared count, and a
// model that stops matching must still trip the ladder within one
// window plus what the stripes can be holding back.
func TestBatchedHealthWindowTrips(t *testing.T) {
	c := New(twoStateModel(), Options{})
	batch, stripes := c.health.batch, len(c.perThread)
	if batch < 2 {
		t.Fatalf("default window %d does not batch (batch %d)", c.health.window, batch)
	}
	// Leave every stripe one admit short of a flush.
	for s := 0; s < stripes; s++ {
		for i := uint64(1); i < batch; i++ {
			healthyAdmit(c, s)
		}
	}
	if n := c.health.admits.Load(); n != 0 {
		t.Fatalf("shared window count = %d before any batch filled, want 0", n)
	}
	// No commit yet: every Admit is an unknown-state pass.
	limit := int(c.health.window) + int(batch)*stripes
	n := 0
	for ; c.Level() == LevelGuided && n <= limit; n++ {
		c.Admit(tts.Pair{Tx: 1, Thread: uint16(n % stripes)})
	}
	if c.Level() == LevelGuided {
		t.Fatalf("100%% unknown stream did not trip within %d admits", limit)
	}
}

// TestBatchedHealthWindowCloses: healthy traffic on one stripe alone
// must still close windows — two of them re-arm a relaxed ladder.
func TestBatchedHealthWindowCloses(t *testing.T) {
	c := New(twoStateModel(), Options{})
	c.level.Store(int32(LevelRelaxed))
	for i := uint64(0); i < 2*c.health.window; i++ {
		if c.Level() == LevelGuided {
			t.Fatalf("re-armed after %d healthy admits, before two windows closed", i)
		}
		healthyAdmit(c, 0)
	}
	if st := c.Stats(); st.Level != LevelGuided || st.Rearms != 1 {
		t.Errorf("after two healthy windows: level %v, rearms %d, want guided and 1", st.Level, st.Rearms)
	}
}

// TestSmallHealthWindowsStayExact: windows too small to batch count
// every admit as it happens, through the striped Admit path too — the
// ladder trips on exactly the admit that fills a window at the trip
// rate, and not on one fewer unknown.
func TestSmallHealthWindowsStayExact(t *testing.T) {
	for _, w := range []int{4, 8} {
		c := New(twoStateModel(), Options{HealthWindow: w})
		feed := func(unknowns int) {
			for i := 0; i < w; i++ {
				if c.Level() != LevelGuided {
					t.Fatalf("window %d: tripped after %d of %d admits", w, i, w)
				}
				if i < unknowns {
					c.Admit(tts.Pair{Tx: 1, Thread: uint16(i)}) // no state yet: unknown
				} else {
					healthyAdmit(c, i)
				}
			}
		}
		feed(w/2 - 1)
		if c.Level() != LevelGuided {
			t.Fatalf("window %d: tripped one unknown below the rate", w)
		}
		feed(w / 2)
		if c.Level() != LevelRelaxed {
			t.Fatalf("window %d: did not trip on the admit that filled the window at the rate", w)
		}
	}
}

// TestHealthBatchPowerOfTwo: the admit batch is window/healthBatchDivisor
// rounded down to a power of two (so the admit path masks instead of
// dividing), and 1 — every admit counted — for windows too small to batch.
func TestHealthBatchPowerOfTwo(t *testing.T) {
	for _, r := range []struct{ window, batch uint64 }{
		{1, 1}, {8, 1}, {31, 1}, {32, 2}, {48, 2}, {64, 4}, {100, 4},
		{DefaultHealthWindow, 16}, {300, 16}, {1000, 32}, {1 << 20, 1 << 16},
	} {
		if got := healthBatch(r.window); got != r.batch {
			t.Errorf("window %d: batch %d, want %d", r.window, got, r.batch)
		}
	}
	if c := New(twoStateModel(), Options{HealthWindow: 100}); c.health.batch != 4 {
		t.Errorf("New with window 100: batch %d, want 4", c.health.batch)
	}
}
