package synquake

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Suite sweeps the SynQuake experiments over thread counts and test
// quests, producing Table V and Figures 11/12.
type Suite struct {
	// Threads lists worker counts (paper: 8, 16).
	Threads []int
	// TestScenarios lists the measured quests (paper: 4quadrants,
	// 4center_spread6).
	TestScenarios []string
	// World and budget parameters, as in Experiment.
	Players, MapSize        int
	TrainFrames, TestFrames int
	Runs                    int
	Tfactor                 float64
	K                       int
	Seed                    int64
}

func (s *Suite) fill() {
	if len(s.Threads) == 0 {
		s.Threads = []int{8, 16}
	}
	if len(s.TestScenarios) == 0 {
		s.TestScenarios = []string{"4quadrants", "4center_spread6"}
	}
}

// SuiteResult holds outcome per scenario per thread count.
type SuiteResult struct {
	ByScenario map[string]map[int]Outcome
	Threads    []int
	Scenarios  []string
}

// RunSuite executes the sweep; logf (when non-nil) receives progress.
func RunSuite(s Suite, logf func(format string, args ...any)) (SuiteResult, error) {
	s.fill()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	res := SuiteResult{
		ByScenario: make(map[string]map[int]Outcome),
		Threads:    s.Threads,
		Scenarios:  s.TestScenarios,
	}
	for _, sc := range s.TestScenarios {
		res.ByScenario[sc] = make(map[int]Outcome)
		for _, th := range s.Threads {
			e := Experiment{
				TestScenario: sc,
				Threads:      th,
				Players:      s.Players,
				MapSize:      s.MapSize,
				TrainFrames:  s.TrainFrames,
				TestFrames:   s.TestFrames,
				Runs:         s.Runs,
				Tfactor:      s.Tfactor,
				K:            s.K,
				Seed:         s.Seed,
			}
			logf("running synquake %s @ %d threads...", sc, th)
			out, err := e.Run()
			if err != nil {
				return res, fmt.Errorf("synquake: %s @%d threads: %w", sc, th, err)
			}
			logf("  metric=%.0f%% frame-var %+.0f%%\n  %s", out.Analysis.Metric,
				out.FrameVarianceImprovement, out.Guided.Guide.Summary())
			res.ByScenario[sc][th] = out
		}
	}
	return res, nil
}

// RenderTableV writes the SynQuake guidance metric table (paper
// Table V; the paper reports 22 at 8 threads and 19 at 16 — strongly
// biased, hence guidable).
func (r SuiteResult) RenderTableV(w io.Writer) {
	fmt.Fprintln(w, "TABLE V: SYNQUAKE GUIDANCE METRIC (LOWER IS BETTER)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Application")
	for _, th := range r.Threads {
		fmt.Fprintf(tw, "\t%d threads", th)
	}
	fmt.Fprintln(tw)
	// The metric comes from the trained model, which is shared across
	// test scenarios; report the first scenario's.
	fmt.Fprint(tw, "SynQuake")
	for _, th := range r.Threads {
		o := r.ByScenario[r.Scenarios[0]][th]
		fmt.Fprintf(tw, "\t%.0f", o.Analysis.Metric)
	}
	fmt.Fprintln(tw)
	tw.Flush()
}

// RenderQuestFigure writes one test quest's three panels — frame-rate
// variance improvement, abort-ratio reduction, slowdown — across thread
// counts (paper Figures 11 and 12).
func (r SuiteResult) RenderQuestFigure(w io.Writer, scenario, figure string) {
	fmt.Fprintf(w, "FIGURE %s: SYNQUAKE QUEST %s\n", figure, scenario)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Threads\tframe-var improvement\tabort-ratio reduction\tslowdown")
	for _, th := range r.Threads {
		o, ok := r.ByScenario[scenario][th]
		if !ok {
			continue
		}
		fmt.Fprintf(tw, "%d\t%+.1f%%\t%+.1f%% (%.3f→%.3f)\t%.2fx\n",
			th, o.FrameVarianceImprovement,
			o.AbortRatioReduction, o.Default.AbortRatio(), o.Guided.AbortRatio(),
			o.Slowdown)
	}
	tw.Flush()
	fmt.Fprintf(w, "(frame stddev default %.3gs → guided %.3gs at %d threads)\n",
		r.ByScenario[scenario][r.Threads[len(r.Threads)-1]].Default.FrameStdDev(),
		r.ByScenario[scenario][r.Threads[len(r.Threads)-1]].Guided.FrameStdDev(),
		r.Threads[len(r.Threads)-1])
}
