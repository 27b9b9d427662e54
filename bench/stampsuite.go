package bench

import (
	"fmt"
	"time"

	"gstm/internal/guide"
	"gstm/internal/harness"
	"gstm/internal/progress"
	"gstm/internal/stamp"
	"gstm/internal/tl2"
	"gstm/internal/trace"
)

const (
	stampProfileRuns = 20
	// The model is trained on medium inputs, as in the paper. The measured
	// runs use medium inputs of a different content seed: a large-input
	// suite takes 140 ms, which leaves a 20 s run too few units for a 95th
	// percentile.
	stampSize       = stamp.Medium
	stampMeasureOff = 1000
	// ssca2 is the negative control: it must stay conflict-free.
	maxSsca2AbortRatio = 1e-3
)

// stampSuite runs the seven STAMP kernels back to back, each on a fresh
// STM with the controller of its own model. Per-thread time and wall time
// of a unit are summed over the kernels.
type stampSuite struct {
	seed    int64
	kernels []stamp.Workload
	ctrls   []*guide.Controller
}

func newStampSuite(seed int64) (*stampSuite, error) {
	w := &stampSuite{seed: seed}
	for _, name := range harness.WorkloadNames {
		k, err := harness.NewWorkload(name)
		if err != nil {
			return nil, err
		}
		w.kernels = append(w.kernels, k)
	}
	return w, nil
}

func (w *stampSuite) Name() string { return "stamp-suite" }

func (w *stampSuite) Runtime() string { return "tl2" }

func (w *stampSuite) WarmPairs() int { return 2 }

func (w *stampSuite) Controllers() []*guide.Controller { return w.ctrls }

func (w *stampSuite) config(seed int64) stamp.Config {
	return stamp.Config{Threads: Threads, Size: stampSize, Seed: seed}
}

func (w *stampSuite) Setup() (*Stages, error) {
	st := &Stages{}
	w.ctrls = w.ctrls[:0]
	for _, k := range w.kernels {
		ctrl, err := st.train(stampProfileRuns, func(run int, col *trace.Collector) error {
			s := tl2.New(tl2.Options{YieldEvery: -1})
			_, err := stamp.Run(s, k, w.config(w.seed+int64(run)), func() { s.SetTracer(col) })
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name(), err)
		}
		w.ctrls = append(w.ctrls, ctrl)
	}
	return st, nil
}

func (w *stampSuite) Run(m Mode, rec *Recorder) (Block, error) {
	b := Block{
		UnitWall:   []time.Duration{0},
		ThreadTime: make([][]time.Duration, Threads),
		Parts:      make([]Part, len(w.kernels)),
	}
	for t := range b.ThreadTime {
		b.ThreadTime[t] = []time.Duration{0}
	}
	unit := int32(0)
	if rec != nil {
		unit = rec.BeginUnit(m)
	}
	var aborts [Threads]int
	for i, k := range w.kernels {
		s := tl2.New(tl2.Options{YieldEvery: -1})
		var (
			col        *trace.Collector
			part       int32
			began      time.Time
			threadSpan [Threads]int32
		)
		if rec != nil {
			col = trace.NewCollector()
			part = rec.Open(spPart, m, -1, unit)
		}
		// The gate and tracer go in after the kernel's own set-up
		// transactions, as the harness does it.
		attach := func() {
			g, tr := wire(m, w.ctrls[i], rec, col)
			s.SetGate(g)
			s.SetTracer(tr)
			if rec != nil {
				began = time.Now()
				for t := range threadSpan {
					threadSpan[t] = rec.Open(spThread, m, t, part)
					rec.Enter(t, threadSpan[t])
				}
			}
		}
		r, err := stamp.Run(s, k, w.config(w.seed+stampMeasureOff), attach)
		commits, ps := s.Commits(), s.ProgressStats()
		if r.ThreadTimes == nil {
			return b, err // the run never started
		}
		p := &b.Parts[i]
		p.Wall, p.Commits, p.Aborts = r.Wall, commits, s.Aborts()
		b.UnitWall[0] += r.Wall
		for t, d := range r.ThreadTimes {
			p.Thread[t] = d
			b.ThreadTime[t][0] += d
			if rec != nil {
				// stamp.Run times each thread body itself; the bodies
				// start together right after attach returns.
				rec.SetTimes(threadSpan[t], began, d)
			}
		}
		if rec != nil {
			rec.Close(part)
			rec.Observe(m, col, k.Name()+"/", &aborts)
		}
		b.Commits += commits
		b.Aborts += p.Aborts
		b.Ops += commits
		b.addProgress(progress.Stats{}, ps)
		// The kernels drop the error of their Atomic calls by design, so a
		// call that failed shows up here or in the kernel's own validation.
		b.Failed += ps.DeadlineExceeded + ps.Sheds
		if err != nil {
			b.Failed += commits
			b.Problems = append(b.Problems, err.Error())
		}
	}
	if rec != nil {
		rec.Close(unit)
		if err := rec.EndBlock(m, &aborts); err != nil {
			return b, err
		}
	}
	return b, nil
}

func (w *stampSuite) Check(def, gui *ModeData, _ GateCounts) []string {
	var bad []string
	for i, k := range w.kernels {
		if k.Name() != "ssca2" {
			continue
		}
		for _, d := range []*ModeData{def, gui} {
			p := d.Parts[i]
			if r := ratio(float64(p.Aborts), float64(p.Commits)); r >= maxSsca2AbortRatio {
				bad = append(bad, fmt.Sprintf("stamp-suite: ssca2 aborts/commit %.5f, want < %g", r, maxSsca2AbortRatio))
			}
		}
	}
	return bad
}
