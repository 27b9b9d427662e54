package harness

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"text/tabwriter"

	"gstm/internal/guide"
	"gstm/internal/stamp"
)

// SuiteConfig describes a full STAMP evaluation sweep: every workload at
// every thread count, through the whole pipeline.
type SuiteConfig struct {
	// Threads lists the worker counts to sweep (the paper uses 8, 16).
	Threads []int
	// Workloads lists kernels; empty means all of WorkloadNames.
	Workloads []string
	// ProfileRuns/MeasureRuns/sizes/Tfactor/K/Seed mirror Experiment.
	ProfileRuns, MeasureRuns int
	ProfileSize, MeasureSize stamp.Size
	Tfactor                  float64
	K                        int
	Seed                     int64
	// ForceAll runs guided measurement even for unfit models.
	ForceAll bool
	// ForceWorkloads forces guided measurement for the named kernels
	// only — the paper forces ssca2 to demonstrate the Figure 8
	// degradation while letting the analyzer gate everything else.
	ForceWorkloads []string
}

func (c *SuiteConfig) fill() {
	if len(c.Threads) == 0 {
		c.Threads = []int{8, 16}
	}
	if len(c.Workloads) == 0 {
		c.Workloads = WorkloadNames
	}
}

// SuiteResult holds every experiment outcome: workload → threads →
// outcome.
type SuiteResult struct {
	Outcomes map[string]map[int]Outcome
	Threads  []int
	Names    []string
}

// RunSuite executes the sweep. logf, when non-nil, receives progress
// lines.
func RunSuite(cfg SuiteConfig, logf func(format string, args ...any)) (SuiteResult, error) {
	cfg.fill()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	res := SuiteResult{
		Outcomes: make(map[string]map[int]Outcome),
		Threads:  cfg.Threads,
		Names:    cfg.Workloads,
	}
	for _, name := range cfg.Workloads {
		res.Outcomes[name] = make(map[int]Outcome)
		for _, th := range cfg.Threads {
			force := cfg.ForceAll
			for _, f := range cfg.ForceWorkloads {
				if f == name {
					force = true
				}
			}
			e := Experiment{
				Workload:    name,
				Threads:     th,
				ProfileRuns: cfg.ProfileRuns,
				MeasureRuns: cfg.MeasureRuns,
				ProfileSize: cfg.ProfileSize,
				MeasureSize: cfg.MeasureSize,
				Tfactor:     cfg.Tfactor,
				K:           cfg.K,
				Seed:        cfg.Seed,
				Force:       force,
			}
			logf("running %s @ %d threads...", name, th)
			out, err := e.Run()
			if err != nil {
				return res, fmt.Errorf("harness: %s @%d threads: %w", name, th, err)
			}
			logf("  metric=%.0f%% states=%d fit=%v", out.Analysis.Metric,
				out.Model.NumStates(), out.Analysis.Fit)
			if out.Compared != nil {
				logf("  %s", out.Guided.Guide.Summary())
			}
			res.Outcomes[name][th] = out
		}
	}
	return res, nil
}

// sortedNames returns the suite's workload names in table order.
func (r SuiteResult) sortedNames() []string {
	names := append([]string(nil), r.Names...)
	sort.Strings(names)
	return names
}

// RenderTableI writes the guidance-metric table (paper Table I, lower
// is better; ≥50 marks the model unfit).
func (r SuiteResult) RenderTableI(w io.Writer) {
	fmt.Fprintln(w, "TABLE I: MODEL ANALYZER GUIDANCE METRIC PERCENTAGE (LOWER IS BETTER)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Application")
	for _, th := range r.Threads {
		fmt.Fprintf(tw, "\t%d threads", th)
	}
	fmt.Fprintln(tw)
	for _, name := range r.sortedNames() {
		fmt.Fprint(tw, name)
		for _, th := range r.Threads {
			o := r.Outcomes[name][th]
			mark := ""
			if !o.Analysis.Fit {
				mark = " (unfit)"
			}
			fmt.Fprintf(tw, "\t%.0f%s", o.Analysis.Metric, mark)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// RenderTableII writes the experiment machine configuration (paper
// Table II; here: the host the reproduction ran on).
func RenderTableII(w io.Writer, threads []int) {
	fmt.Fprintln(w, "TABLE II: CONFIGURATION OF MACHINE USED FOR EXPERIMENTS")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Feature\tValue\n")
	fmt.Fprintf(tw, "Logical CPUs\t%d\n", runtime.NumCPU())
	fmt.Fprintf(tw, "GOMAXPROCS\t%d\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(tw, "GOOS/GOARCH\t%s/%s\n", runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(tw, "Go version\t%s\n", runtime.Version())
	fmt.Fprintf(tw, "Thread counts swept\t%v\n", threads)
	tw.Flush()
	fmt.Fprintln(w, "(The paper used two x86 boxes: 2x4 cores @2.4GHz and 2x8 cores @2.7GHz;")
	fmt.Fprintln(w, " worker goroutines stand in for pinned pthreads — see DESIGN.md.)")
}

// RenderTableIII writes the model-size table (paper Table III).
func (r SuiteResult) RenderTableIII(w io.Writer) {
	fmt.Fprintln(w, "TABLE III: THE NUMBER OF STATES IN THE MODEL OF APPLICATION")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Application")
	for _, th := range r.Threads {
		fmt.Fprintf(tw, "\t%d threads", th)
	}
	fmt.Fprintln(tw, "\tmodel bytes")
	for _, name := range r.sortedNames() {
		fmt.Fprint(tw, name)
		var bytes int
		for _, th := range r.Threads {
			o := r.Outcomes[name][th]
			fmt.Fprintf(tw, "\t%d", o.Model.NumStates())
			bytes = o.ModelBytes
		}
		fmt.Fprintf(tw, "\t%d\n", bytes)
	}
	tw.Flush()
}

// RenderTableIV writes the abort tail-distribution improvement table
// (paper Table IV).
func (r SuiteResult) RenderTableIV(w io.Writer) {
	fmt.Fprintln(w, "TABLE IV: AVERAGE PERCENTAGE IMPROVEMENT IN THE TAIL DISTRIBUTION OF ABORTS")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Application")
	for _, th := range r.Threads {
		fmt.Fprintf(tw, "\t%d threads", th)
	}
	fmt.Fprintln(tw)
	for _, name := range r.sortedNames() {
		fmt.Fprint(tw, name)
		for _, th := range r.Threads {
			o := r.Outcomes[name][th]
			if o.Compared == nil {
				fmt.Fprint(tw, "\tn/a (unfit)")
				continue
			}
			fmt.Fprintf(tw, "\t%.0f%%", o.Compared.AvgTailImprovement())
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// RenderVarianceFigure writes the per-thread execution-time variance
// improvement for every workload at one thread count (paper Figures 4
// and 6).
func (r SuiteResult) RenderVarianceFigure(w io.Writer, threads int, figure string) {
	fmt.Fprintf(w, "FIGURE %s: %% EXECUTION TIME VARIANCE IMPROVEMENT PER THREAD (%d threads)\n",
		figure, threads)
	for _, name := range r.sortedNames() {
		o := r.Outcomes[name][threads]
		if o.Compared == nil {
			fmt.Fprintf(w, "%-10s  (model unfit; guided run skipped)\n", name)
			continue
		}
		fmt.Fprintf(w, "%-10s ", name)
		for t, imp := range o.Compared.VarianceImprovement {
			fmt.Fprintf(w, " t%d:%+.0f%%", t, imp)
		}
		fmt.Fprintf(w, "  (avg %+.0f%%, fairness J=%.2f)\n",
			o.Compared.AvgVarianceImprovement(), o.Compared.Fairness)
	}
}

// RenderAbortTailFigure writes the abort-count distributions, default
// vs guided, for one representative thread per workload (paper Figures
// 5 and 7 plot one thread per benchmark).
func (r SuiteResult) RenderAbortTailFigure(w io.Writer, threads int, figure string) {
	fmt.Fprintf(w, "FIGURE %s: TAIL OF THE ABORT DISTRIBUTION (default vs guided, %d threads)\n",
		figure, threads)
	for i, name := range r.sortedNames() {
		o := r.Outcomes[name][threads]
		thread := i % threads // serially picked threads, as in the paper
		fmt.Fprintf(w, "%s thread %d\n", name, thread)
		dv, df := o.Default.AbortHist[thread].Series()
		fmt.Fprint(w, "  default: ")
		for j := range dv {
			fmt.Fprintf(w, "%d:%d ", dv[j], df[j])
		}
		fmt.Fprintln(w)
		if o.Compared == nil {
			fmt.Fprintln(w, "  guided:  (skipped, model unfit)")
			continue
		}
		gv, gf := o.Guided.AbortHist[thread].Series()
		fmt.Fprint(w, "  guided:  ")
		for j := range gv {
			fmt.Fprintf(w, "%d:%d ", gv[j], gf[j])
		}
		fmt.Fprintln(w)
	}
}

// RenderFigure8 writes the ssca2 degradation panels (paper Figure 8):
// per-thread variance change under forced guidance plus the (unchanged)
// abort distribution.
func (r SuiteResult) RenderFigure8(w io.Writer) {
	fmt.Fprintln(w, "FIGURE 8: SSCA2 PERFORMANCE WITH (FORCED) GUIDED EXECUTION")
	for _, th := range r.Threads {
		o, ok := r.Outcomes["ssca2"][th]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%d threads: analyzer verdict: %s\n", th, o.Analysis)
		if o.Compared == nil {
			fmt.Fprintln(w, "  guided run skipped (re-run with -force to reproduce the degradation)")
			continue
		}
		fmt.Fprintf(w, "  per-thread variance change:")
		for t, imp := range o.Compared.VarianceImprovement {
			fmt.Fprintf(w, " t%d:%+.0f%%", t, imp)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "  abort tail change: %+.0f%% (paper: 0 — aborts unchanged)\n",
			o.Compared.AvgTailImprovement())
		fmt.Fprintf(w, "  slowdown: %.2fx\n", o.Compared.Slowdown)
	}
}

// RenderFigure9 writes the non-determinism reduction chart (paper
// Figure 9).
func (r SuiteResult) RenderFigure9(w io.Writer) {
	fmt.Fprintln(w, "FIGURE 9: % REDUCTION IN NON-DETERMINISM (distinct thread transactional states)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Application")
	for _, th := range r.Threads {
		fmt.Fprintf(tw, "\t%d threads (default→guided states)", th)
	}
	fmt.Fprintln(tw)
	for _, name := range r.sortedNames() {
		fmt.Fprint(tw, name)
		for _, th := range r.Threads {
			o := r.Outcomes[name][th]
			if o.Compared == nil {
				fmt.Fprint(tw, "\tn/a")
				continue
			}
			fmt.Fprintf(tw, "\t%+.0f%% (%d→%d)", o.Compared.NonDetReduction,
				o.Default.DistinctStates, o.Guided.DistinctStates)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// RenderProgress writes the mode's progress-guarantee summary: the
// escalation/deadline/watchdog counters and the per-(tx,thread) Atomic
// latency percentiles, worst tails first. maxPairs bounds the latency
// table (≤ 0 means 8); pairs beyond it are summarized, not hidden.
func RenderProgress(w io.Writer, res ModeResult, maxPairs int) {
	fmt.Fprintln(w, res.Progress)
	if len(res.Latency) == 0 {
		return
	}
	if maxPairs <= 0 {
		maxPairs = 8
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "tx\tthread\tcalls\tp50(µs)\tp95(µs)\tp99(µs)")
	shown := 0
	for _, pl := range res.Latency {
		if shown == maxPairs {
			fmt.Fprintf(tw, "…\t(%d more pairs)\t\t\t\t\n", len(res.Latency)-shown)
			break
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.1f\t%.1f\t%.1f\n",
			pl.Pair.Tx, pl.Pair.Thread, pl.Count,
			pl.P50*1e6, pl.P95*1e6, pl.P99*1e6)
		shown++
	}
	tw.Flush()
}

// RenderStarvation writes the guide's per-thread starvation forensics —
// progress escapes and cumulative hold time per thread — so a starving
// thread is visible in the run summary without a debugger. Threads with
// no evidence are skipped; if none have any, one quiet line says so.
func RenderStarvation(w io.Writer, gs guide.Stats) {
	any := false
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "thread\tescapes\theld")
	for t := range gs.ThreadEscapes {
		esc := gs.ThreadEscapes[t]
		var held float64
		if t < len(gs.ThreadHoldTime) {
			held = gs.ThreadHoldTime[t].Seconds()
		}
		if esc == 0 && held == 0 {
			continue
		}
		any = true
		fmt.Fprintf(tw, "%d\t%d\t%.6fs\n", t, esc, held)
	}
	if !any {
		fmt.Fprintln(w, "starvation: no holds or escapes recorded")
		return
	}
	fmt.Fprintln(w, "starvation forensics (per-thread escapes and hold time):")
	tw.Flush()
}

// RenderFigure10 writes the slowdown chart (paper Figure 10).
func (r SuiteResult) RenderFigure10(w io.Writer) {
	fmt.Fprintln(w, "FIGURE 10: SLOWDOWN OF GUIDED VS DEFAULT EXECUTION (1.0 = none)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Application")
	for _, th := range r.Threads {
		fmt.Fprintf(tw, "\t%d threads", th)
	}
	fmt.Fprintln(tw)
	for _, name := range r.sortedNames() {
		fmt.Fprint(tw, name)
		for _, th := range r.Threads {
			o := r.Outcomes[name][th]
			if o.Compared == nil {
				fmt.Fprint(tw, "\tn/a")
				continue
			}
			fmt.Fprintf(tw, "\t%.2fx", o.Compared.Slowdown)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}
