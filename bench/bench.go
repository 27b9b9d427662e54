// Package bench is gstmbench: the one benchmark every performance or
// simplicity change to this repository is judged with. It measures the
// paper's outcomes end to end (guided/default slowdown, run-to-run spread
// of thread time, throughput) with tracing off, and every layer from
// outside — by timing calls into its public functions and by wrapping the
// Gate and Tracer interfaces — in a separate traced pass. See README.md.
package bench

import (
	"fmt"
	"runtime"
	"time"

	"gstm/internal/analyze"
	"gstm/internal/guide"
	"gstm/internal/model"
	"gstm/internal/progress"
	"gstm/internal/trace"
	"gstm/internal/tts"
)

// Mode is one side of an interleaved pair.
type Mode uint8

const (
	// Default runs with no gate and no tracer.
	Default Mode = iota
	// Guided runs with the trained controller as gate and tracer.
	Guided
)

func (m Mode) String() string {
	if m == Guided {
		return "guided"
	}
	return "default"
}

// Block is what one call into a workload measured: one unit, or fifty
// frames for SynQuake. Every unit of a workload does identical work.
type Block struct {
	// UnitWall[i] is unit i's time: the slowest thread, or the frame time.
	UnitWall []time.Duration
	// ThreadTime[t][i] is thread t's time in unit i. SynQuake measures
	// frames, not threads: every row is the frame time.
	ThreadTime [][]time.Duration
	// Parts splits a stamp-suite unit by kernel.
	Parts           []Part
	Commits, Aborts uint64
	// Ops counts Atomic calls issued, Failed those that returned an error,
	// were shed, missed a deadline or belong to a run that failed its
	// output check.
	Ops, Failed                        uint64
	Escalations, DeadlineMisses, Sheds uint64
	// Problems lists failed output checks.
	Problems []string
}

// addProgress adds what the runtime's progress counters gained between two
// snapshots.
func (b *Block) addProgress(before, after progress.Stats) {
	b.Escalations += after.Escalations - before.Escalations
	b.DeadlineMisses += after.DeadlineExceeded - before.DeadlineExceeded
	b.Sheds += after.Sheds - before.Sheds
}

// Part is one STAMP kernel's share of a stamp-suite unit.
type Part struct {
	Wall            time.Duration
	Thread          [Threads]time.Duration
	Commits, Aborts uint64
}

// Workload is one set of inputs the benchmark runs.
type Workload interface {
	Name() string
	// Runtime is the STM package the workload runs on: "tl2" or "libtm".
	Runtime() string
	// Setup builds the shared state, profiles it and trains the
	// controllers. It may be called more than once; each call starts over.
	Setup() (*Stages, error)
	// Run executes one block. rec is nil with tracing off.
	Run(m Mode, rec *Recorder) (Block, error)
	// Controllers returns the trained controllers, for their counters.
	Controllers() []*guide.Controller
	// Check returns the failed output checks and anti-vacuity guards that
	// are specific to the workload.
	Check(def, gui *ModeData, gate GateCounts) []string
	// WarmPairs is how many pairs run before measurement starts.
	WarmPairs() int
}

// NewWorkload generates the named workload's inputs from seed.
func NewWorkload(name string, seed int64) (Workload, error) {
	switch name {
	case "ladder-disjoint", "bank-hot":
		return newOps(name, seed), nil
	case "stamp-suite":
		return newStampSuite(seed)
	case "synquake-quadrants":
		return newQuake(seed), nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q (want one of %v)", name, WorkloadNames)
}

// WorkloadNames lists the workloads in BENCHMARK.json's order.
var WorkloadNames = []string{"ladder-disjoint", "bank-hot", "stamp-suite", "synquake-quadrants"}

// SetupSpan is one timed stage of set-up.
type SetupSpan struct {
	Name  string
	Start time.Time
	Dur   time.Duration
}

// Stages times the set-up pipeline stage by stage and describes the models
// it produced. A workload with several models (stamp-suite) sums them.
type Stages struct {
	Profile, Sequence, AddRun, Prune, Analyze, GuideNew time.Duration

	Events, Unattributed               int
	States, PrunedStates, EncodedBytes int
	Models, FitModels                  int
	MetricPctSum                       float64
	Spans                              []SetupSpan
}

func (st *Stages) timed(name string, total *time.Duration, fn func()) {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	*total += d
	st.Spans = append(st.Spans, SetupSpan{name, t0, d})
}

// train is the paper's pipeline for one program: profile runs with a
// Collector attached, model generation, pruning, analysis, and a
// controller built whatever the verdict (the harness's Force semantics;
// the verdict is reported). profile must run profile run `run` with col
// receiving its events.
func (st *Stages) train(runs int, profile func(run int, col *trace.Collector) error) (*guide.Controller, error) {
	m := model.New(Threads)
	for run := 0; run < runs; run++ {
		col := trace.NewCollector()
		var err error
		st.timed("profile", &st.Profile, func() { err = profile(run, col) })
		if err != nil {
			return nil, fmt.Errorf("profile run %d: %w", run, err)
		}
		commits, aborts := col.Counts()
		st.Events += commits + aborts
		var seq []tts.State
		st.timed("trace.Collector.Sequence", &st.Sequence, func() {
			var unattributed int
			seq, unattributed = col.Sequence()
			st.Unattributed += unattributed
		})
		st.timed("model.AddRun", &st.AddRun, func() { m.AddRun(seq) })
	}
	var pruned *model.TSA
	st.timed("model.Prune", &st.Prune, func() { pruned = m.Prune(model.DefaultTfactor) })
	var rep analyze.Report
	st.timed("analyze.Analyze", &st.Analyze, func() { rep = analyze.Analyze(m, analyze.Options{}) })
	var ctrl *guide.Controller
	st.timed("guide.New", &st.GuideNew, func() { ctrl = guide.New(pruned, guide.Options{}) })
	st.States += m.NumStates()
	st.PrunedStates += pruned.NumStates()
	st.EncodedBytes += m.EncodedSize()
	st.Models++
	st.MetricPctSum += rep.Metric
	if rep.Fit {
		st.FitModels++
	}
	return ctrl, nil
}

// ModeData accumulates the measured blocks of one mode.
type ModeData struct {
	UnitWall []float64 // seconds, in run order
	// ThreadTime holds one series (seconds, in run order) per thread and
	// set-up: units measured on different instances are different series.
	ThreadTime [][]float64
	series     int        // index of the current set-up's first series
	Parts      []PartData // per STAMP kernel, stamp-suite only
	// BlockWall[i] is the summed unit wall of block i, BlockTxPerS[i] its
	// commits over that time. Block i of one mode and block i of the other
	// ran back to back as a pair.
	BlockWall, BlockTxPerS []float64

	Commits, Aborts, Ops, Failed       uint64
	Escalations, DeadlineMisses, Sheds uint64
	Problems                           []string
}

// PartData accumulates one STAMP kernel's share of the units.
type PartData struct {
	Wall            []float64
	Thread          [Threads][]float64
	Commits, Aborts uint64
}

// newSeries starts new thread-time series: the blocks that follow run on a
// new set-up.
func (d *ModeData) newSeries() { d.series = len(d.ThreadTime) }

func (d *ModeData) add(b Block) {
	wall := 0.0
	for _, w := range b.UnitWall {
		d.UnitWall = append(d.UnitWall, w.Seconds())
		wall += w.Seconds()
	}
	d.BlockWall = append(d.BlockWall, wall)
	d.BlockTxPerS = append(d.BlockTxPerS, ratio(float64(b.Commits), wall))
	for len(d.ThreadTime) < d.series+len(b.ThreadTime) {
		d.ThreadTime = append(d.ThreadTime, nil)
	}
	for t, xs := range b.ThreadTime {
		for _, x := range xs {
			d.ThreadTime[d.series+t] = append(d.ThreadTime[d.series+t], x.Seconds())
		}
	}
	if d.Parts == nil {
		d.Parts = make([]PartData, len(b.Parts))
	}
	for k, p := range b.Parts {
		pd := &d.Parts[k]
		pd.Wall = append(pd.Wall, p.Wall.Seconds())
		for t, x := range p.Thread {
			pd.Thread[t] = append(pd.Thread[t], x.Seconds())
		}
		pd.Commits += p.Commits
		pd.Aborts += p.Aborts
	}
	d.Commits += b.Commits
	d.Aborts += b.Aborts
	d.Ops += b.Ops
	d.Failed += b.Failed
	d.Escalations += b.Escalations
	d.DeadlineMisses += b.DeadlineMisses
	d.Sheds += b.Sheds
	d.Problems = append(d.Problems, b.Problems...)
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ThreadSeconds is the time all threads spent in the measured units.
func (d *ModeData) ThreadSeconds() float64 {
	s := 0.0
	for _, xs := range d.ThreadTime {
		s += sumOf(xs)
	}
	return s
}

// AbortsPerCommit is the abort ratio of the measured units.
func (d *ModeData) AbortsPerCommit() float64 { return ratio(float64(d.Aborts), float64(d.Commits)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measure runs interleaved pairs — one block in default mode, one in
// guided mode, the order alternating pair to pair — for at least budget,
// after warm pairs that are run and thrown away.
func measure(w Workload, rec *Recorder, warm int, budget time.Duration, def, gui *ModeData) error {
	data := [2]*ModeData{def, gui}
	var start time.Time
	for i := 0; ; i++ {
		if i == warm {
			runtime.GC()
			start = time.Now()
		}
		order := [2]Mode{Default, Guided}
		if i%2 == 1 {
			order = [2]Mode{Guided, Default}
		}
		for _, m := range order {
			r := rec
			if i < warm {
				r = nil
			}
			b, err := w.Run(m, r)
			if err != nil {
				return fmt.Errorf("%s pair %d (%s): %w", w.Name(), i, m, err)
			}
			if i >= warm {
				data[m].add(b)
			}
		}
		if i >= warm && time.Since(start) >= budget {
			return nil
		}
	}
}

// GateCounts sums the decisions of a workload's controllers.
type GateCounts struct {
	Admits, Holds, Escapes, UnknownPasses, Degradations uint64
	MaxHoldRechecks                                     uint64
	LevelFinal                                          int
	HoldTime                                            time.Duration
	// Broken lists controllers whose admit partition does not add up.
	Broken []string
}

func gateCounts(ctrls []*guide.Controller) GateCounts {
	var g GateCounts
	for i, c := range ctrls {
		s := c.Stats()
		g.Admits += s.Admits
		g.Holds += s.Holds
		g.Escapes += s.Escapes
		g.UnknownPasses += s.UnknownPasses
		g.Degradations += s.Degradations
		g.MaxHoldRechecks = max(g.MaxHoldRechecks, s.MaxHoldRechecks)
		g.LevelFinal = max(g.LevelFinal, int(s.Level))
		for _, d := range s.ThreadHoldTime {
			g.HoldTime += d
		}
		if s.Admits != s.ImmediateAdmits+s.Holds+s.ReadOnlyAdmits {
			g.Broken = append(g.Broken, fmt.Sprintf("controller %d: admits %d != immediate %d + holds %d + read-only %d",
				i, s.Admits, s.ImmediateAdmits, s.Holds, s.ReadOnlyAdmits))
		}
	}
	return g
}

// plus adds the decisions of another set of controllers.
func (g GateCounts) plus(o GateCounts) GateCounts {
	g.Admits += o.Admits
	g.Holds += o.Holds
	g.Escapes += o.Escapes
	g.UnknownPasses += o.UnknownPasses
	g.Degradations += o.Degradations
	g.HoldTime += o.HoldTime
	g.MaxHoldRechecks = max(g.MaxHoldRechecks, o.MaxHoldRechecks)
	g.LevelFinal = max(g.LevelFinal, o.LevelFinal)
	g.Broken = append(g.Broken, o.Broken...)
	return g
}

// minus returns the decisions made since before was taken.
func (g GateCounts) minus(before GateCounts) GateCounts {
	g.Admits -= before.Admits
	g.Holds -= before.Holds
	g.Escapes -= before.Escapes
	g.UnknownPasses -= before.UnknownPasses
	g.Degradations -= before.Degradations
	g.HoldTime -= before.HoldTime
	return g
}
