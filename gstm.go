// Package gstm is a guided software transactional memory for Go: a
// from-scratch implementation of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (Mururu,
// Gavrilovska, Pande — CGO 2019).
//
// The package bundles two STM runtimes and the paper's variance
// pipeline:
//
//   - a TL2 STM (commit-time locking, global version clock, write-back)
//     with transactional Vars, Arrays, Maps and Queues;
//   - a LibTM-style object STM with configurable conflict detection and
//     resolution (see internal/libtm, used by the SynQuake example);
//   - profiling that records thread transactional states (which commit
//     aborted whom), model generation into a probabilistic Thread State
//     Automaton, a model analyzer (guidance metric), and a guided
//     execution controller that gates transaction starts.
//
// Quickstart:
//
//	s := gstm.New(gstm.Options{})
//	v := gstm.NewVar(0)
//	_ = s.Atomic(threadID, txID, func(tx *gstm.Tx) error {
//	    tx.Write(v, tx.Read(v)+1)
//	    return nil
//	})
//
// To reduce variance, profile, build and analyze a model, then attach a
// controller:
//
//	m, _ := gstm.Profile(20, threads, func(s *gstm.STM) error { return runWorkload(s) })
//	rep := gstm.AnalyzeModel(m, 0)
//	if rep.Fit {
//	    ctrl := gstm.NewController(m, 0, 0)
//	    gstm.Guide(s, ctrl, nil)
//	    // subsequent transactions on s follow the model's
//	    // high-probability commit paths
//	}
package gstm

import (
	"gstm/internal/analyze"
	"gstm/internal/guide"
	"gstm/internal/model"
	"gstm/internal/online"
	"gstm/internal/overload"
	"gstm/internal/progress"
	"gstm/internal/tl2"
	"gstm/internal/trace"
	"gstm/internal/tts"
)

// Core TL2 STM types, re-exported for the public API.
type (
	// ContentionManager arbitrates lock conflicts (see Polite, Karma,
	// Greedy).
	ContentionManager = tl2.ContentionManager
	// Polite, Karma and Greedy are the classic contention managers,
	// provided as baselines to compare against guided execution.
	Polite = tl2.Polite
	// Karma arbitrates by accumulated transactional work.
	Karma = tl2.Karma
	// Greedy arbitrates by transaction age.
	Greedy = tl2.Greedy

	// STM is a TL2 software transactional memory domain.
	STM = tl2.STM
	// Tx is a transaction attempt passed to Atomic callbacks.
	Tx = tl2.Tx
	// Var is a transactional int64 word.
	Var = tl2.Var
	// Options configures an STM.
	Options = tl2.Options
	// Array is a fixed-length transactional int64 sequence.
	Array = tl2.Array
	// Map is a fixed-capacity transactional hash table.
	Map = tl2.Map
	// Queue is a bounded transactional FIFO.
	Queue = tl2.Queue
)

// Modeling and guidance types.
type (
	// Pair identifies a transaction execution: static transaction ID +
	// thread ID.
	Pair = tts.Pair
	// State is a thread transactional state: one commit plus the aborts
	// it caused.
	State = tts.State
	// Model is the Thread State Automaton built from profiled runs.
	Model = model.TSA
	// AnalysisReport is the model analyzer's verdict.
	AnalysisReport = analyze.Report
	// Controller is the guided-execution gate and state tracker.
	Controller = guide.Controller
	// GuideStats counts controller decisions.
	GuideStats = guide.Stats
	// Collector records commit/abort events and groups them into
	// thread transactional state sequences.
	Collector = trace.Collector
	// Tracer is the event sink interface implemented by Collector and
	// Controller.
	Tracer = trace.Tracer
)

// Progress-guarantee types (see internal/progress): STM.AtomicCtx adds
// deadlines and cancellation, escalation falls back to an irrevocable
// serial path, and a livelock watchdog adapts the escalation threshold.
type (
	// ProgressStats is the snapshot returned by (*STM).ProgressStats:
	// escalations, deadline misses, watchdog trips and the effective
	// escalation threshold.
	ProgressStats = progress.Stats
	// LatencyRecorder collects per-(tx,thread) Atomic call latencies;
	// attach with (*STM).SetLatencyRecorder.
	LatencyRecorder = progress.LatencyRecorder
	// PairLatency is one pair's latency percentile summary.
	PairLatency = progress.PairLatency
)

// Online continuously-learning guidance (see internal/online): a
// background learner cuts the live commit/abort stream into epochs of
// exactly EpochEvents events by ring position, folds each into an epoch
// snapshot, audits it, and swaps healthy models into the controller
// lock-free; drift and staleness guards quarantine the gate to
// passthrough and re-arm it when a later epoch probes healthy.
type (
	// OnlineLearner is the streaming TSA controller; attach it with
	// GuideOnline (or wire it as one sink of a MultiTracer).
	OnlineLearner = online.Learner
	// OnlineOptions configures epoch length (which also sizes the
	// event ring), state budget, decay and drift/staleness thresholds.
	OnlineOptions = online.Options
	// OnlineStats is the learner's counter snapshot.
	OnlineStats = online.Stats
)

// Adaptive overload control (see internal/overload): an AIMD
// concurrency limiter with contention-collapse detection and
// deadline-aware, priority-weighted load shedding, attached via
// Options.Overload. Shed calls fail fast with ErrShed before touching
// the runtime; STM.AtomicPri selects the priority class.
type (
	// Limiter is the adaptive admission controller; build with
	// NewLimiter and attach via Options.Overload.
	Limiter = overload.Limiter
	// LimiterOptions configures a Limiter (cap, floor, mode, window,
	// collapse thresholds).
	LimiterOptions = overload.Options
	// LimiterMode selects the limit policy (LimiterAIMD/LimiterFixed).
	LimiterMode = overload.Mode
	// LimiterStats is the limiter's counter snapshot.
	LimiterStats = overload.Stats
	// Pri is an admission priority class for STM.AtomicPri (0..3;
	// lower sheds first).
	Pri = overload.Pri
)

// Limiter modes and priority classes.
const (
	// LimiterAIMD adapts the in-flight cap from collapse signals.
	LimiterAIMD = overload.ModeAIMD
	// LimiterFixed pins the cap at MaxInflight.
	LimiterFixed = overload.ModeFixed
	// PriLow sheds first under backlog pressure; PriCritical last.
	PriLow      = overload.PriLow
	PriNormal   = overload.PriNormal
	PriHigh     = overload.PriHigh
	PriCritical = overload.PriCritical
)

// NewLimiter builds an adaptive admission controller.
func NewLimiter(opts LimiterOptions) *Limiter { return overload.New(opts) }

// ErrShed is returned (wrapped) by Atomic calls the overload limiter
// rejected before any transactional work: the remaining deadline was
// below the predicted queue wait, the priority class's backlog budget
// was exhausted, or an injected shed storm fired. Distinguishable from
// ErrDeadline, which means the runtime ran and lost to the clock.
var ErrShed = overload.ErrShed

// NewLatencyRecorder returns an empty Atomic latency recorder.
func NewLatencyRecorder() *LatencyRecorder { return progress.NewLatencyRecorder() }

// ErrRetryLimit is returned by Atomic when Options.MaxRetries is
// exceeded.
var ErrRetryLimit = tl2.ErrRetryLimit

// ErrDeadline is returned by AtomicCtx (and by Atomic under
// Options.DefaultDeadline) when the context expires before the
// transaction commits; the returned error also wraps ctx.Err().
var ErrDeadline = tl2.ErrDeadline

// DefaultTfactor is the paper's recommended guidance threshold divisor.
const DefaultTfactor = model.DefaultTfactor

// New returns a TL2 STM with the given options.
func New(opts Options) *STM { return tl2.New(opts) }

// NewVar returns a transactional word initialized to x.
func NewVar(x int64) *Var { return tl2.NewVar(x) }

// NewFloatVar returns a transactional word initialized to f.
func NewFloatVar(f float64) *Var { return tl2.NewFloatVar(f) }

// NewArray returns an Array of n words initialized to init.
func NewArray(n int, init int64) *Array { return tl2.NewArray(n, init) }

// NewMap returns a transactional map sized for at least n entries.
func NewMap(n int) *Map { return tl2.NewMap(n) }

// NewQueue returns a bounded transactional FIFO of capacity n.
func NewQueue(n int) *Queue { return tl2.NewQueue(n) }

// NewCollector returns an empty trace collector.
func NewCollector() *Collector { return trace.NewCollector() }

// MultiTracer fans events out to several sinks (e.g. a Controller and a
// Collector during guided measurement).
func MultiTracer(sinks ...Tracer) Tracer { return trace.Multi(sinks...) }

// BuildModel constructs a Thread State Automaton from profiled
// transaction sequences, one per run (the paper's Algorithm 1).
func BuildModel(threads int, runs ...[]State) *Model {
	return model.Build(threads, runs...)
}

// DecodeModel reads a model from its binary encoding; see
// (*Model).Encode.
var DecodeModel = model.Decode

// AnalyzeModel computes the guidance metric and fit verdict for m.
// tfactor ≤ 0 uses DefaultTfactor.
func AnalyzeModel(m *Model, tfactor float64) AnalysisReport {
	return analyze.Analyze(m, analyze.Options{Tfactor: tfactor})
}

// NewController builds a guided-execution controller from a model that
// passed analysis. tfactor ≤ 0 uses DefaultTfactor; k ≤ 0 uses the
// default progress-escape retry count. The model is pruned to its
// high-probability core first (the paper's Section VI size reduction).
func NewController(m *Model, tfactor float64, k int) *Controller {
	if tfactor <= 0 {
		tfactor = model.DefaultTfactor
	}
	return guide.New(m.Prune(tfactor), guide.Options{Tfactor: tfactor, K: k})
}

// Guide wires a controller into an STM: the controller gates every
// transaction start and observes every commit/abort. If col is non-nil
// it receives the same event stream (for measurement).
func Guide(s *STM, ctrl *Controller, col *Collector) {
	ctrl.Reset()
	if col != nil {
		s.SetTracer(trace.Multi(ctrl, col))
	} else {
		s.SetTracer(ctrl)
	}
	s.SetGate(ctrl)
}

// GuideOnline wires continuously-learning guidance into an STM: ctrl
// gates transaction starts while a background learner folds the
// commit/abort stream epoch by epoch, builds snapshots and swaps healthy
// models into ctrl lock-free. The controller may start empty
// (guide.New(nil, ...)); it admits everything until the first healthy
// snapshot lands. The returned learner is already started — call its
// Close method at end of run to flush the final partial epoch, and
// Unguide to detach the STM. If col is non-nil it receives the same
// event stream.
func GuideOnline(s *STM, ctrl *Controller, opts OnlineOptions, col *Collector) *OnlineLearner {
	ctrl.Reset()
	l := online.New(ctrl, opts)
	sinks := []Tracer{ctrl, l}
	if col != nil {
		sinks = append(sinks, col)
	}
	s.SetTracer(trace.Multi(sinks...))
	s.SetGate(ctrl)
	l.Start()
	return l
}

// Unguide removes guidance from an STM, restoring default execution
// with no tracer.
func Unguide(s *STM) {
	s.SetGate(nil)
	s.SetTracer(nil)
}

// Profile runs fn `runs` times, each against a fresh STM with a fresh
// collector attached, and builds a model from the recorded sequences.
// threads records the intended worker count in the model (models are
// per-thread-count, as in the paper).
func Profile(runs, threads int, fn func(s *STM) error) (*Model, error) {
	m := model.New(threads)
	for i := 0; i < runs; i++ {
		s := tl2.New(tl2.Options{})
		col := trace.NewCollector()
		s.SetTracer(col)
		if err := fn(s); err != nil {
			return nil, err
		}
		seq, _ := col.Sequence()
		m.AddRun(seq)
	}
	return m, nil
}
