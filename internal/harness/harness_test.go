package harness

import (
	"runtime"
	"testing"

	"gstm/internal/guide"
	"gstm/internal/stamp"
	"gstm/internal/stamp/stamptest"
	"gstm/internal/stats"
	"gstm/internal/tl2"
)

func TestNewWorkloadKnowsAllNames(t *testing.T) {
	for _, name := range WorkloadNames {
		w, err := NewWorkload(name)
		if err != nil {
			t.Errorf("NewWorkload(%q): %v", name, err)
			continue
		}
		if w.Name() != name {
			t.Errorf("workload %q reports name %q", name, w.Name())
		}
	}
	if _, err := NewWorkload("bayes"); err == nil {
		t.Error("bayes must be unknown (excluded, as in the paper)")
	}
}

func fastExperiment(workload string, threads int) Experiment {
	return Experiment{
		Workload:    workload,
		Threads:     threads,
		ProfileRuns: 3,
		MeasureRuns: 4,
		ProfileSize: stamp.Small,
		MeasureSize: stamp.Small,
		Seed:        12345,
	}
}

// TestSpinYieldsOnHarnessSTMs: the harness's STMs emulate preemption
// exactly where the experiment has more threads than Ps, and where they do,
// stamp.Spin yields inside kmeans's transactions.
func TestSpinYieldsOnHarnessSTMs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	two := fastExperiment("kmeans", 2)
	if ye := two.stmOptions().YieldEvery; ye != 0 {
		t.Errorf("2 threads on 2 Ps: YieldEvery %d, want the runtime's default", ye)
	}
	e := fastExperiment("kmeans", 4)
	opts := e.stmOptions()
	if opts.YieldEvery <= 0 {
		t.Errorf("4 threads on 2 Ps: YieldEvery %d, want the emulation on", opts.YieldEvery)
	}
	w, err := NewWorkload(e.Workload)
	if err != nil {
		t.Fatal(err)
	}
	c := &stamptest.YieldCounter{}
	opts.Yield = c.Yield
	if _, err := stamp.Run(tl2.New(opts), w, stamp.Config{Threads: e.Threads, Size: e.MeasureSize, Seed: e.Seed}); err != nil {
		t.Fatal(err)
	}
	if c.Spin.Load() == 0 {
		t.Errorf("%d yields, none inside stamp.Spin: the harness's STMs stopped emulating preemption", c.All.Load())
	}
}

func TestProfileBuildsModel(t *testing.T) {
	m, err := fastExperiment("kmeans", 4).Profile()
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() == 0 {
		t.Fatal("profile produced an empty model")
	}
	if m.Threads != 4 {
		t.Errorf("model thread count = %d", m.Threads)
	}
}

func TestMeasureDefaultMode(t *testing.T) {
	e := fastExperiment("vacation", 3)
	res, err := e.Measure(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ThreadTimes) != 3 {
		t.Fatalf("ThreadTimes for %d threads", len(res.ThreadTimes))
	}
	for tid, xs := range res.ThreadTimes {
		if len(xs) != 4 {
			t.Errorf("thread %d has %d samples, want 4", tid, len(xs))
		}
		for _, x := range xs {
			if x <= 0 {
				t.Errorf("thread %d non-positive time %v", tid, x)
			}
		}
	}
	if res.Commits == 0 {
		t.Error("no commits")
	}
	if res.DistinctStates == 0 {
		t.Error("no states observed")
	}
	if res.MeanWall <= 0 {
		t.Error("no wall time")
	}
	sds := res.ThreadStdDevs()
	if len(sds) != 3 {
		t.Fatalf("stddevs = %v", sds)
	}
}

func TestMeasureGuidedMode(t *testing.T) {
	e := fastExperiment("kmeans", 4)
	m, err := e.Profile()
	if err != nil {
		t.Fatal(err)
	}
	ctrl := guide.New(m, guide.Options{K: 4})
	res, err := e.Measure(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Guide.Admits == 0 {
		t.Error("guided mode never consulted the gate")
	}
}

func TestFullPipelineKmeans(t *testing.T) {
	out, err := fastExperiment("kmeans", 4).Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Model == nil || out.ModelBytes <= 0 {
		t.Error("model missing")
	}
	if out.Analysis.NumStates != out.Model.NumStates() {
		t.Error("analysis/model state mismatch")
	}
	if out.Analysis.Fit {
		if out.Compared == nil {
			t.Fatal("fit model but no comparison")
		}
		if len(out.Compared.VarianceImprovement) != 4 {
			t.Errorf("per-thread improvements = %v", out.Compared.VarianceImprovement)
		}
		if out.Compared.Slowdown <= 0 {
			t.Errorf("slowdown = %v", out.Compared.Slowdown)
		}
	} else if out.Compared != nil {
		t.Error("unfit model but comparison ran without Force")
	}
	if out.Elapsed <= 0 {
		t.Error("elapsed missing")
	}
}

func TestForceRunsGuidedOnUnfitModel(t *testing.T) {
	// ssca2 at small scale yields a tiny/uniform model; Force must
	// still produce a comparison (the paper's Figure 8 experiment).
	e := fastExperiment("ssca2", 2)
	e.Force = true
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Compared == nil {
		t.Fatal("Force did not run guided measurement")
	}
}

func TestCompareMath(t *testing.T) {
	mk := func(times [][]float64, states int, wall float64, aborts uint64, hist [][]int) ModeResult {
		r := ModeResult{
			ThreadTimes:    times,
			DistinctStates: states,
			MeanWall:       wall,
			Aborts:         aborts,
		}
		for _, hs := range hist {
			h := stats.NewHistogram()
			for _, v := range hs {
				_ = h.Add(v)
			}
			r.AbortHist = append(r.AbortHist, h)
		}
		return r
	}
	def := mk([][]float64{{1, 3}, {2, 6}}, 100, 1.0, 1000, [][]int{{0, 4}, {0, 10}})
	gui := mk([][]float64{{2, 3}, {3, 5}}, 60, 1.2, 500, [][]int{{0, 2}, {0, 5}})
	c := Compare(def, gui)
	// Thread 0: sd 1.414→0.707 = 50% improvement.
	if c.VarianceImprovement[0] < 49 || c.VarianceImprovement[0] > 51 {
		t.Errorf("variance improvement[0] = %v", c.VarianceImprovement[0])
	}
	// Tail thread 0: 16 → 4 = 75%.
	if c.TailImprovement[0] != 75 {
		t.Errorf("tail improvement[0] = %v", c.TailImprovement[0])
	}
	// Non-determinism: 100 → 60 = 40%.
	if c.NonDetReduction != 40 {
		t.Errorf("non-det reduction = %v", c.NonDetReduction)
	}
	if c.Slowdown != 1.2 {
		t.Errorf("slowdown = %v", c.Slowdown)
	}
	if c.AbortReduction != 50 {
		t.Errorf("abort reduction = %v", c.AbortReduction)
	}
	if got := c.AvgVarianceImprovement(); got <= 0 {
		t.Errorf("avg variance improvement = %v", got)
	}
	if got := c.AvgTailImprovement(); got != (75.0+75.0)/2 {
		t.Errorf("avg tail improvement = %v", got)
	}
}

func TestExperimentDefaults(t *testing.T) {
	e := Experiment{Workload: "kmeans"}
	e.fill()
	if e.ProfileRuns != 20 || e.MeasureRuns != 20 || e.Threads != 8 {
		t.Errorf("defaults: %+v", e)
	}
	if e.ProfileSize != stamp.Medium || e.MeasureSize != stamp.Small {
		t.Errorf("size defaults: %v %v", e.ProfileSize, e.MeasureSize)
	}
	if e.Tfactor != 4 {
		t.Errorf("tfactor default: %v", e.Tfactor)
	}
}

func TestUnknownWorkloadErrors(t *testing.T) {
	if _, err := (Experiment{Workload: "nope", Threads: 2, ProfileRuns: 1, MeasureRuns: 1}).Profile(); err == nil {
		t.Error("Profile with unknown workload must fail")
	}
	if _, err := (Experiment{Workload: "nope", Threads: 2, ProfileRuns: 1, MeasureRuns: 1}).Measure(nil); err == nil {
		t.Error("Measure with unknown workload must fail")
	}
}

func TestAllWorkloadsThroughPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range WorkloadNames {
		name := name
		t.Run(name, func(t *testing.T) {
			e := fastExperiment(name, 2)
			e.ProfileRuns = 2
			e.MeasureRuns = 2
			if _, err := e.Run(); err != nil {
				t.Fatalf("%s pipeline: %v", name, err)
			}
		})
	}
}
