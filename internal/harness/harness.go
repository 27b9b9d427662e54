// Package harness orchestrates the paper's four-phase framework
// (Figure 1): profile execution on the training input, model
// generation, model analysis, and guided (vs default) measurement runs.
// It produces the quantities every table and figure reports: per-thread
// execution-time standard deviation, abort-count distributions and
// their tail metric, non-determinism (distinct thread transactional
// states), and slowdown.
package harness

import (
	"fmt"
	"time"

	"gstm/internal/analyze"
	"gstm/internal/fault"
	"gstm/internal/guide"
	"gstm/internal/model"
	"gstm/internal/online"
	"gstm/internal/overload"
	"gstm/internal/progress"
	"gstm/internal/stamp"
	"gstm/internal/stamp/genome"
	"gstm/internal/stamp/intruder"
	"gstm/internal/stamp/kmeans"
	"gstm/internal/stamp/labyrinth"
	"gstm/internal/stamp/ssca2"
	"gstm/internal/stamp/vacation"
	"gstm/internal/stamp/yada"
	"gstm/internal/stats"
	"gstm/internal/tl2"
	"gstm/internal/trace"
	"gstm/internal/txn"
)

// WorkloadNames lists the STAMP kernels in the paper's table order
// (bayes is excluded: it seg-faulted in the paper's experiments too).
var WorkloadNames = []string{
	"genome", "intruder", "kmeans", "labyrinth", "ssca2", "vacation", "yada",
}

// NewWorkload returns a fresh workload by kernel name.
func NewWorkload(name string) (stamp.Workload, error) {
	switch name {
	case "genome":
		return genome.New(), nil
	case "intruder":
		return intruder.New(), nil
	case "kmeans":
		return kmeans.New(), nil
	case "labyrinth":
		return labyrinth.New(), nil
	case "ssca2":
		return ssca2.New(), nil
	case "vacation":
		return vacation.New(), nil
	case "yada":
		return yada.New(), nil
	}
	return nil, fmt.Errorf("harness: unknown workload %q", name)
}

// Experiment describes one paper experiment: a kernel at a thread count
// with profile/measure run counts and inputs.
type Experiment struct {
	// Workload is the kernel name (see WorkloadNames).
	Workload string
	// Threads is the worker count (the paper uses 8 and 16).
	Threads int
	// ProfileRuns is how many training runs build the model (paper: 20).
	ProfileRuns int
	// MeasureRuns is how many runs each of default/guided measurement
	// performs (paper: 20).
	MeasureRuns int
	// ProfileSize is the training input (paper: medium).
	ProfileSize stamp.Size
	// MeasureSize is the testing input (artifact default: small).
	MeasureSize stamp.Size
	// Tfactor is the guidance threshold divisor (paper: 4).
	Tfactor float64
	// K is the guide's progress-escape retry count.
	K int
	// Seed randomizes workload content; runs derive per-run seeds.
	Seed int64
	// Force runs guided measurement even when the analyzer rejects the
	// model (used to reproduce Figure 8's ssca2 degradation).
	Force bool
	// CM optionally installs a contention manager on the measured STM
	// (both modes), for the contention-manager-vs-guidance ablation.
	CM tl2.ContentionManager
	// Inject optionally wires a deterministic fault injector into every
	// STM instance the experiment creates (and, via Run, into the guide's
	// hold loop) — the robustness harness's chaos knob. Nil means no
	// faults and no overhead.
	Inject *fault.Injector
	// Guide overrides the controller health/ladder options used by Run;
	// Tfactor, K and Inject are filled from the experiment itself.
	Guide guide.Options
	// TxDeadline, when positive, bounds every Atomic call in the
	// measured workloads (tl2.Options.DefaultDeadline); calls that miss
	// it surface as run errors wrapping tl2.ErrDeadline.
	TxDeadline time.Duration
	// EscalateAfter is the irrevocable-escalation abort threshold
	// passed to the STM (0 = runtime default, negative disables).
	EscalateAfter int
	// WatchdogWindow is the livelock watchdog's sampling window
	// (0 = runtime default, negative disables).
	WatchdogWindow time.Duration
	// Online, when true, adds a fourth measured mode to Run: a gate
	// built with no offline model at all, fed by an online learner
	// (internal/online) that streams the TSA from the live trace and
	// swaps epoch snapshots into the gate as they prove healthy.
	Online bool
	// EpochEvents and StateBudget tune the online learner (0 = the
	// learner's defaults). Ignored unless Online is set. An epoch is
	// exactly EpochEvents accepted events, cut by ring position.
	EpochEvents int
	StateBudget int
	// MaxMetric is the online learner's snapshot fitness ceiling (0 =
	// the offline analyzer's bar). Soaks and small workloads may relax
	// it: the drift guard re-scores every installed snapshot each
	// epoch, so a lax audit bar trades admission quality for swap
	// traffic, not correctness.
	MaxMetric float64
	// Overload, when non-nil, attaches an admission controller
	// (internal/overload) to every STM the experiment creates. The
	// limiter's adaptive state persists across the runs of a mode —
	// that continuity is what is being measured — and its counters are
	// snapshotted into ModeResult.Overload.
	Overload *overload.Limiter
}

// stmOptions builds the tl2 options every experiment-created STM uses;
// they emulate preemption where the experiment has more threads than Ps.
func (e *Experiment) stmOptions() tl2.Options {
	return tl2.Options{
		YieldEvery:      txn.YieldEveryFor(e.Threads),
		Inject:          e.Inject,
		DefaultDeadline: e.TxDeadline,
		EscalateAfter:   e.EscalateAfter,
		WatchdogWindow:  e.WatchdogWindow,
		Overload:        e.Overload,
	}
}

func (e *Experiment) fill() {
	if e.ProfileRuns <= 0 {
		e.ProfileRuns = 20
	}
	if e.MeasureRuns <= 0 {
		e.MeasureRuns = 20
	}
	if e.Threads <= 0 {
		e.Threads = 8
	}
	if e.Tfactor <= 0 {
		e.Tfactor = model.DefaultTfactor
	}
	if e.ProfileSize == stamp.SizeUnset {
		e.ProfileSize = stamp.Medium
	}
	if e.MeasureSize == stamp.SizeUnset {
		e.MeasureSize = stamp.Small
	}
}

// ModeResult aggregates the measurement runs of one execution mode
// (default or guided).
type ModeResult struct {
	// ThreadTimes[t] holds thread t's execution time (seconds) in each
	// run.
	ThreadTimes [][]float64
	// AbortHist[t] is the distribution of per-run abort counts of
	// thread t (the figures' abort distributions).
	AbortHist []*stats.Histogram
	// DistinctStates is |S| across all runs — the non-determinism
	// measure.
	DistinctStates int
	// Commits and Aborts are event totals over all runs.
	Commits, Aborts uint64
	// MeanWall is the mean parallel-section wall time in seconds.
	MeanWall float64
	// Guide holds controller decision counters (guided mode only).
	Guide guide.Stats
	// Progress accumulates the STMs' progress-guarantee counters
	// (escalations, deadline misses, watchdog trips) over all runs; the
	// threshold field reports the last run's effective value.
	Progress progress.Stats
	// Latency holds the per-(tx,thread) Atomic latency percentile
	// summaries across all runs, worst P99 first.
	Latency []progress.PairLatency
	// Overload is the admission controller's counter snapshot after the
	// mode's runs (zero value unless Experiment.Overload was set).
	Overload overload.Stats
}

// ThreadStdDevs returns the per-thread execution-time standard
// deviations (the paper's primary variance quantity).
func (m ModeResult) ThreadStdDevs() []float64 {
	out := make([]float64, len(m.ThreadTimes))
	for t, xs := range m.ThreadTimes {
		out[t] = stats.StdDev(xs)
	}
	return out
}

// Profile runs the training phase and builds the TSA.
func (e Experiment) Profile() (*model.TSA, error) {
	e.fill()
	w, err := NewWorkload(e.Workload)
	if err != nil {
		return nil, err
	}
	m := model.New(e.Threads)
	for run := 0; run < e.ProfileRuns; run++ {
		s := tl2.New(e.stmOptions())
		col := trace.NewCollector()
		cfg := stamp.Config{Threads: e.Threads, Size: e.ProfileSize, Seed: e.Seed + int64(run)}
		if _, err := stamp.Run(s, w, cfg, func() { s.SetTracer(col) }); err != nil {
			return nil, wrapRunErr("profile", run, s, err)
		}
		seq, _ := col.Sequence()
		m.AddRun(seq)
	}
	return m, nil
}

// wrapRunErr attaches phase/run context to a stamp.Run failure. The
// STAMP workload threads drop per-call Atomic errors by design, so a
// deadline miss or an admission shed inside a workload surfaces as a
// validation failure; if the STM counted either, re-attach the
// matching sentinel (overload.ErrShed, tl2.ErrDeadline) so callers —
// and cmd/gstm's exit codes — can tell overload and starvation from
// breakage. Sheds win the tiebreak: a shed storm usually produces
// deadline misses too, and the shed is the root cause.
func wrapRunErr(phase string, run int, s *tl2.STM, err error) error {
	ps := s.ProgressStats()
	if ps.Sheds > 0 {
		return fmt.Errorf("harness: %s run %d: %w (%d calls shed by admission control): %w",
			phase, run, overload.ErrShed, ps.Sheds, err)
	}
	if ps.DeadlineExceeded > 0 {
		return fmt.Errorf("harness: %s run %d: %w (%d calls missed the deadline): %w",
			phase, run, tl2.ErrDeadline, ps.DeadlineExceeded, err)
	}
	return fmt.Errorf("harness: %s run %d: %w", phase, run, err)
}

// Measure runs the measurement phase in default mode (ctrl nil) or
// guided mode (ctrl non-nil).
func (e Experiment) Measure(ctrl *guide.Controller) (ModeResult, error) {
	return e.measureWith(ctrl, nil)
}

// MeasureOnline runs the measurement phase in online-guided mode: the
// gate starts with no model and an online learner streams one from the
// live trace, swapping epoch snapshots in as they prove healthy.
// Learned state (the accumulator, the installed model) persists across
// the measurement runs — that continuity is the mode being measured.
func (e Experiment) MeasureOnline() (ModeResult, online.Stats, error) {
	e.fill()
	ctrl, l := e.onlineGate()
	l.Start()
	res, err := e.measureWith(ctrl, l)
	l.Close()
	// Close flushes the final partial epoch, which may install one
	// more snapshot; re-snapshot the gate so its counters and the
	// learner's agree on what this mode did.
	res.Guide = ctrl.Stats()
	return res, l.Stats(), err
}

// onlineGate builds MeasureOnline's cold gate and the learner that feeds
// it, not yet started. e must be filled.
func (e Experiment) onlineGate() (*guide.Controller, *online.Learner) {
	gopts := e.Guide
	gopts.Tfactor, gopts.K, gopts.Inject = e.Tfactor, e.K, e.Inject
	ctrl := guide.New(nil, gopts)
	return ctrl, online.New(ctrl, online.Options{
		EpochEvents: e.EpochEvents,
		StateBudget: e.StateBudget,
		MaxMetric:   e.MaxMetric,
		Tfactor:     e.Tfactor,
		Inject:      e.Inject,
	})
}

// measureWith is the shared measurement loop. learner, when non-nil,
// is added to the trace fan-out and survives across runs (only the
// gate's run-local state is reset).
func (e Experiment) measureWith(ctrl *guide.Controller, learner *online.Learner) (ModeResult, error) {
	e.fill()
	w, err := NewWorkload(e.Workload)
	if err != nil {
		return ModeResult{}, err
	}
	res := ModeResult{
		ThreadTimes: make([][]float64, e.Threads),
		AbortHist:   make([]*stats.Histogram, e.Threads),
	}
	for t := 0; t < e.Threads; t++ {
		res.AbortHist[t] = stats.NewHistogram()
	}
	var allKeys []string
	var wallSum float64
	rec := progress.NewLatencyRecorder()

	for run := 0; run < e.MeasureRuns; run++ {
		s := tl2.New(e.stmOptions())
		col := trace.NewCollector()
		cfg := stamp.Config{Threads: e.Threads, Size: e.MeasureSize, Seed: e.Seed + 1000 + int64(run)}
		after := func() {
			s.SetLatencyRecorder(rec)
			if e.CM != nil {
				s.SetContentionManager(e.CM)
			}
			switch {
			case ctrl != nil && learner != nil:
				ctrl.Reset()
				s.SetTracer(trace.Multi(ctrl, learner, col))
				s.SetGate(ctrl)
			case ctrl != nil:
				ctrl.Reset()
				s.SetTracer(trace.Multi(ctrl, col))
				s.SetGate(ctrl)
			default:
				s.SetTracer(col)
			}
		}
		r, err := stamp.Run(s, w, cfg, after)
		if err != nil {
			return res, wrapRunErr("measure", run, s, err)
		}
		for t := 0; t < e.Threads; t++ {
			res.ThreadTimes[t] = append(res.ThreadTimes[t], r.ThreadTimes[t].Seconds())
		}
		byThread := col.AbortCountByThread()
		for t := 0; t < e.Threads; t++ {
			if err := res.AbortHist[t].Add(byThread[uint16(t)]); err != nil {
				return res, err
			}
		}
		seq, _ := col.Sequence()
		allKeys = append(allKeys, trace.Keys(seq)...)
		res.Commits += s.Commits()
		res.Aborts += s.Aborts()
		ps := s.ProgressStats()
		res.Progress.Escalations += ps.Escalations
		res.Progress.DeadlineExceeded += ps.DeadlineExceeded
		res.Progress.WatchdogTrips += ps.WatchdogTrips
		res.Progress.EscalateThreshold = ps.EscalateThreshold
		wallSum += r.Wall.Seconds()
	}
	res.Latency = rec.Summaries()
	res.DistinctStates = stats.DistinctStates(allKeys)
	res.MeanWall = wallSum / float64(e.MeasureRuns)
	if ctrl != nil {
		res.Guide = ctrl.Stats()
	}
	res.Overload = e.Overload.Stats()
	return res, nil
}

// Comparison contrasts guided against default execution, yielding the
// exact quantities of the paper's figures.
type Comparison struct {
	// VarianceImprovement[t] is the % reduction in thread t's
	// execution-time standard deviation (Figures 4 and 6; negative
	// means degradation, as in Figure 8).
	VarianceImprovement []float64
	// TailImprovement[t] is the % reduction of thread t's abort tail
	// metric (Table IV averages these).
	TailImprovement []float64
	// NonDetReduction is the % reduction in distinct states (Figure 9).
	NonDetReduction float64
	// Slowdown is guided wall time / default wall time (Figure 10).
	Slowdown float64
	// AbortReduction is the % reduction in total aborts.
	AbortReduction float64
	// Fairness is Jain's fairness index over the guided per-thread
	// standard deviations: near 1 means every thread kept a similar
	// variance, the paper's empirical fairness evidence ("all the
	// threads ... experienced similar reduction in variance").
	Fairness float64
}

// AvgVarianceImprovement averages the per-thread variance improvements.
func (c Comparison) AvgVarianceImprovement() float64 {
	return stats.Mean(c.VarianceImprovement)
}

// AvgTailImprovement averages the per-thread tail improvements
// (Table IV's quantity).
func (c Comparison) AvgTailImprovement() float64 {
	return stats.Mean(c.TailImprovement)
}

// Compare computes the guided-vs-default comparison.
func Compare(def, guided ModeResult) Comparison {
	n := len(def.ThreadTimes)
	c := Comparison{
		VarianceImprovement: make([]float64, n),
		TailImprovement:     make([]float64, n),
	}
	defSD, guidSD := def.ThreadStdDevs(), guided.ThreadStdDevs()
	for t := 0; t < n; t++ {
		c.VarianceImprovement[t] = stats.PercentImprovement(defSD[t], guidSD[t])
		c.TailImprovement[t] = stats.PercentImprovement(
			def.AbortHist[t].TailMetric(), guided.AbortHist[t].TailMetric())
	}
	c.NonDetReduction = stats.PercentImprovement(
		float64(def.DistinctStates), float64(guided.DistinctStates))
	c.Slowdown = stats.Slowdown(def.MeanWall, guided.MeanWall)
	c.AbortReduction = stats.PercentImprovement(float64(def.Aborts), float64(guided.Aborts))
	c.Fairness = stats.JainFairness(guidSD)
	return c
}

// Outcome is the full pipeline result for one experiment.
type Outcome struct {
	// Model is the trained TSA.
	Model *model.TSA
	// Analysis is the analyzer verdict (guidance metric).
	Analysis analyze.Report
	// ModelBytes is the encoded model size.
	ModelBytes int
	// Default and Guided hold the measurement results; Guided is zero
	// when the analyzer rejected the model and Force was false.
	Default, Guided ModeResult
	// Compared is non-nil when both modes ran.
	Compared *Comparison
	// OnlineMode holds the measurement result of the online-learned
	// mode and OnlineLearn the learner's counters; zero unless
	// Experiment.Online was set.
	OnlineMode  ModeResult
	OnlineLearn online.Stats
	// OnlineCompared contrasts online-learned guidance against default
	// execution; non-nil when Experiment.Online was set. Unlike Guided it
	// never waits for an offline analyzer verdict — the learner audits
	// its own snapshots every epoch.
	OnlineCompared *Comparison
	// Elapsed is the total pipeline wall time.
	Elapsed time.Duration
}

// Run executes the full pipeline: profile → model → analyze →
// default + guided measurement → comparison.
func (e Experiment) Run() (Outcome, error) {
	e.fill()
	t0 := time.Now()
	m, err := e.Profile()
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{
		Model:      m,
		Analysis:   analyze.Analyze(m, analyze.Options{Tfactor: e.Tfactor}),
		ModelBytes: m.EncodedSize(),
	}
	out.Default, err = e.Measure(nil)
	if err != nil {
		return out, err
	}
	if out.Analysis.Fit || e.Force {
		pruned := m.Prune(e.Tfactor)
		gopts := e.Guide
		gopts.Tfactor, gopts.K, gopts.Inject = e.Tfactor, e.K, e.Inject
		ctrl := guide.New(pruned, gopts)
		out.Guided, err = e.Measure(ctrl)
		if err != nil {
			return out, err
		}
		cmp := Compare(out.Default, out.Guided)
		out.Compared = &cmp
	}
	if e.Online {
		out.OnlineMode, out.OnlineLearn, err = e.MeasureOnline()
		if err != nil {
			return out, err
		}
		cmp := Compare(out.Default, out.OnlineMode)
		out.OnlineCompared = &cmp
	}
	out.Elapsed = time.Since(t0)
	return out, nil
}
