package bench

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"
)

// Config is one invocation of the benchmark.
type Config struct {
	Workload string
	Seed     int64
	// Seconds is how long the run measures. The work of one unit is fixed
	// by count; the number of units is what the time buys.
	Seconds float64
	// Trace selects the traced pass (per-layer metrics) over the untraced
	// one (end-to-end metrics).
	Trace bool
	// Warm is how long the host is spun before calibration.
	Warm time.Duration
	// Rounds is how many times the untraced pass sets up and measures, each
	// round for Seconds/Rounds. Where the runtime's shared words land in
	// memory moves unit times by several percent for the life of an
	// instance; rounds average over instances, and setup_s is their median.
	Rounds int
	// TraceDir receives <workload>.trace.json from the traced pass; empty
	// writes none.
	TraceDir string
	// Log receives the human-readable report.
	Log io.Writer
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the object the benchmark prints as its last line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// pass accumulates what the measured pairs of one invocation produced.
type pass struct {
	w        Workload
	def, gui ModeData
	gate     GateCounts
	problems map[string]bool
}

// measure runs pairs on the workload's current set-up and checks its
// outputs; the controllers' decisions since `since` are added to the pass.
func (p *pass) measure(rec *Recorder, warm int, budget time.Duration, since GateCounts) error {
	p.def.newSeries()
	p.gui.newSeries()
	if err := measure(p.w, rec, warm, budget, &p.def, &p.gui); err != nil {
		return err
	}
	p.gate = p.gate.plus(gateCounts(p.w.Controllers()).minus(since))
	if p.gate.Admits < p.gui.Commits {
		p.problems[fmt.Sprintf("%s: fewer admits than guided commits: the gate was not consulted", p.w.Name())] = true
	}
	for _, bad := range p.w.Check(&p.def, &p.gui, p.gate) {
		p.problems[bad] = true
	}
	return nil
}

// Run executes one pass of one workload and checks its outputs. The
// returned problems are the failed output checks and anti-vacuity guards;
// Result.Correct is false when there are any.
func Run(cfg Config) (Result, Host, []string, error) {
	runtime.GOMAXPROCS(Threads)
	host := Calibrate(cfg.Warm)
	fmt.Fprintf(cfg.Log, "host: nproc %d, GOMAXPROCS %d, %s, %s, pair/single %.3f\n",
		host.NProc, host.GOMAXPROCS, host.GoVersion, host.CPUModel, host.PairOverSingle)
	if host.Degraded {
		fmt.Fprintf(cfg.Log, "host_degraded: two threads take %.2fx one thread's time; do not compare this result\n", host.PairOverSingle)
	}
	w, err := NewWorkload(cfg.Workload, cfg.Seed)
	if err != nil {
		return Result{}, host, nil, err
	}
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	p := &pass{w: w, problems: make(map[string]bool)}

	var (
		values map[string]float64
		defs   []MetricDef
	)
	if !cfg.Trace {
		rounds := max(cfg.Rounds, 1)
		setups := make([]float64, rounds)
		for i := range setups {
			t0 := time.Now()
			if _, err := w.Setup(); err != nil {
				return Result{}, host, nil, fmt.Errorf("%s set-up: %w", w.Name(), err)
			}
			setups[i] = time.Since(t0).Seconds()
			if err := p.measure(nil, w.WarmPairs(), budget/time.Duration(rounds), GateCounts{}); err != nil {
				return Result{}, host, nil, err
			}
		}
		values, defs = endToEnd(setups, &p.def, &p.gui), EndToEnd
		fmt.Fprintf(cfg.Log, "%s: %d default and %d guided units in %d rounds; the 95th percentile has %d units beyond it\n",
			w.Name(), len(p.def.UnitWall), len(p.gui.UnitWall), rounds, len(p.def.UnitWall)/20)
	} else {
		// The traced pass splits its time: untraced pairs as the base of
		// the tracing overhead, traced pairs, then the probes.
		st, err := w.Setup()
		if err != nil {
			return Result{}, host, nil, fmt.Errorf("%s set-up: %w", w.Name(), err)
		}
		if err := p.measure(nil, w.WarmPairs(), budget*3/10, GateCounts{}); err != nil {
			return Result{}, host, nil, err
		}
		plainDef, plainGui, plainGate := p.def, p.gui, p.gate
		tp := &tracedPass{runtime: w.Runtime(), host: host, stages: st, rec: NewRecorder(), plainDef: &plainDef, plainGui: &plainGui}
		p.def, p.gui = ModeData{}, ModeData{}
		if err := p.measure(tp.rec, 0, budget/2, gateCounts(w.Controllers())); err != nil {
			return Result{}, host, nil, err
		}
		tp.def, tp.gui, tp.gate = &p.def, &p.gui, p.gate.minus(plainGate)
		if tp.probes, err = runProbes(cfg.Seed, budget/5); err != nil {
			return Result{}, host, nil, err
		}
		if cfg.TraceDir != "" {
			path := filepath.Join(cfg.TraceDir, w.Name()+".trace.json")
			if err := tp.rec.WriteTrace(path, w.Name(), cfg.Seed, st.Spans); err != nil {
				return Result{}, host, nil, fmt.Errorf("trace file: %w", err)
			}
			fmt.Fprintf(cfg.Log, "trace: %s\n", path)
		}
		values, defs = perLayer(tp), PerLayer
		// Failed operations of the untraced pairs count too.
		p.def.Ops += tp.plainDef.Ops
		p.gui.Ops += tp.plainGui.Ops
		p.def.Failed += tp.plainDef.Failed
		p.gui.Failed += tp.plainGui.Failed
		p.def.Problems = append(p.def.Problems, tp.plainDef.Problems...)
		p.gui.Problems = append(p.gui.Problems, tp.plainGui.Problems...)
		// On ladder-disjoint the ladder climbs the workload's own unit, so the
		// two numbers must agree.
		fmt.Fprintf(cfg.Log, "ladder: %d units per rung; bare + tracer + gate = %.1f ns per transaction; this workload's untraced guided pairs cost %.1f\n",
			tp.probes.RungUnits-1, tp.probes.RungNsPerTx[rungGate], ratio(1e9*plainGui.ThreadSeconds(), float64(plainGui.Commits)))
	}

	problems := append(append(p.def.Problems, p.gui.Problems...), p.gate.Broken...)
	for bad := range p.problems {
		problems = append(problems, bad)
	}
	res := Result{
		Attempted: p.def.Ops + p.gui.Ops,
		Failed:    p.def.Failed + p.gui.Failed,
		Metrics:   make(map[string]Metric, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.Name] = Metric{values[d.Name], d.Unit}
		fmt.Fprintf(cfg.Log, "%-40s %16.6g %s\n", d.Name, values[d.Name], d.Unit)
	}
	res.Correct = len(problems) == 0 && res.Failed == 0
	return res, host, problems, nil
}
