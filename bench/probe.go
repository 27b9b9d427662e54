package bench

import (
	"context"
	"fmt"
	"time"

	"gstm/internal/guide"
	"gstm/internal/online"
	"gstm/internal/overload"
	"gstm/internal/trace"
	"gstm/internal/tts"
)

// The probes measure the fixed per-transaction cost of each layer on its
// own, whatever workload the traced pass belongs to: the ladder on the
// ladder-disjoint unit, and two loops that call a layer directly.

// Rungs of the ladder: each adds one layer to the one before, except the
// last, which swaps the limiter for the online learner.
const (
	rungBare = iota
	rungTracer
	rungGate
	rungLimiter
	rungOnline
	nRungs
)

// Probes holds the probe results.
type Probes struct {
	// RungNsPerTx is Σ thread time / Σ commits per rung.
	RungNsPerTx [nRungs]float64
	RungUnits   int

	Limiter overload.Stats
	Learner online.Stats
	Swaps   uint64

	AcquireReleaseNsP50, EnqueueNsP50, OnAbortNsP50 float64
}

// runProbes climbs the ladder for about budget, rung after rung in turns
// so that drift of the host reaches every rung alike, then runs the two
// direct loops.
func runProbes(seed int64, budget time.Duration) (*Probes, error) {
	w := newOps("ladder-disjoint", seed)
	if _, err := w.Setup(); err != nil {
		return nil, fmt.Errorf("ladder set-up: %w", err)
	}
	opts := w.options()
	limiter := overload.New(overload.Options{})
	opts.Overload = limiter
	limited := w.newInstance(opts)

	// The learner swaps models into the controller it feeds, so the online
	// rung gets a controller of its own over the same model.
	learning := guide.New(w.ctrl.Model(), guide.Options{})
	learner := online.New(learning, online.Options{})
	learner.Start()
	defer learner.Close()

	type rung struct {
		in   *opsInstance
		ctrl *guide.Controller
		gate gate
		tr   trace.Tracer
	}
	rungs := [nRungs]rung{
		rungBare:    {in: w.inst},
		rungTracer:  {in: w.inst, ctrl: w.ctrl, tr: w.ctrl},
		rungGate:    {in: w.inst, ctrl: w.ctrl, gate: w.ctrl, tr: w.ctrl},
		rungLimiter: {in: limited, ctrl: w.ctrl, gate: w.ctrl, tr: w.ctrl},
		rungOnline:  {in: w.inst, ctrl: learning, gate: learning, tr: trace.Multi(learning, learner)},
	}
	p := &Probes{}
	var threadNs, commits [nRungs]float64
	for start := time.Now(); p.RungUnits < 3 || time.Since(start) < budget; p.RungUnits++ {
		for i, r := range rungs {
			if r.ctrl != nil {
				r.ctrl.Reset()
			}
			b := w.runOn(r.in, r.gate, r.tr, nil, Default)
			if b.Failed > 0 || b.Aborts > 0 {
				return nil, fmt.Errorf("ladder rung %d: %d failed operations, %d aborts on disjoint data", i, b.Failed, b.Aborts)
			}
			if p.RungUnits == 0 {
				continue // first round warms every rung
			}
			for _, d := range b.ThreadTime {
				threadNs[i] += float64(d[0])
			}
			commits[i] += float64(b.Commits)
		}
	}
	for i := range rungs {
		p.RungNsPerTx[i] = threadNs[i] / commits[i]
	}
	for _, in := range []*opsInstance{w.inst, limited} {
		if err := in.sums(); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}
	p.Limiter = limiter.Stats()
	p.Learner = learner.Stats()
	p.Swaps = learning.Stats().ModelSwaps

	p.AcquireReleaseNsP50 = callNsP50(func() {
		lim := limiter
		if err := lim.Acquire(context.Background(), overload.PriNormal); err == nil {
			lim.Release(lim.Now(), true)
		}
	})
	instance := uint64(1 << 40)
	p.EnqueueNsP50 = callNsP50(func() {
		instance++
		learner.OnCommit(instance, tts.Pair{Tx: 0, Thread: 0})
	})
	// An abort attributed to the current state's commit rebuilds the
	// state, which is the controller's expensive path; ladder-disjoint
	// never aborts, so it is driven directly. One call per clock read: it
	// costs many clock reads.
	aborting := guide.New(w.ctrl.Model(), guide.Options{})
	samples := make([]float64, 4096)
	for i := range samples {
		instance++
		aborting.OnCommit(instance, tts.Pair{Tx: 0, Thread: 0})
		t0 := time.Now()
		aborting.OnAbort(tts.Pair{Tx: 0, Thread: 1}, instance)
		samples[i] = float64(time.Since(t0))
	}
	p.OnAbortNsP50 = percentile(samples, 50)
	return p, nil
}

// callNsP50 is the median cost of one call of fn in nanoseconds. Calls are
// timed sixteen at a time: one clock read costs about as much as the calls
// being measured.
func callNsP50(fn func()) float64 {
	const batch, batches = 16, 4096
	samples := make([]float64, batches)
	for i := range samples {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			fn()
		}
		samples[i] = float64(time.Since(t0)) / batch
	}
	return percentile(samples, 50)
}
