// Command gstm is the pipeline driver, mirroring the paper artifact's
// exec.sh workflow: profile a benchmark to generate the state model
// (the artifact's mcmc_data option), analyze it, then run guided
// (model) or default executions and report timings, variance,
// non-determinism and abort distributions.
//
// Usage:
//
//	gstm -bench kmeans -threads 8 -runs 20 -op mcmc_data -model state_data
//	gstm -bench kmeans -threads 8 -op analyze -model state_data
//	gstm -bench kmeans -threads 8 -runs 20 -op model   -model state_data
//	gstm -bench kmeans -threads 8 -runs 20 -op default
//	gstm -bench kmeans -threads 8 -runs 20 -op ND_mcmc -model state_data
//	gstm -bench kmeans -threads 8 -runs 20 -op ND_only
//
// Options mirror the artifact: mcmc_data generates the model; model
// runs guided STM; default runs unmodified STM; ND_mcmc / ND_only
// report non-determinism data for guided / default runs. The -freq flag
// is the paper's Tfactor (usually 4).
//
// Online guidance: -op online runs the drifting-workload simulator
// three ways — passthrough, a frozen offline-profiled model, and the
// continuously-learning online controller — and reports post-shift
// variance, aborts and guard activity side by side. -epoch-events,
// -state-budget and -drift-trip tune the learner; -runs is the seed
// count.
//
// Overload control: -op overload measures the contention-collapse
// curve — the same seeded oversubscription workload at 1×/2×/4×/8×
// with and without the AIMD admission controller — and reports
// throughput retention side by side. -max-inflight sets the in-flight
// cap (0 = 2×cores for the curve; for the measure ops, 0 leaves the
// limiter off entirely), -limiter picks aimd or fixed, and -shed is
// the tolerated shed fraction: a run whose admission rejections exceed
// it — or a measured run that fails with ErrShed — exits with code 6
// (shed-exhausted). The new fault classes (load-spike, limiter-stall,
// shed-storm) compose: `-op overload -fault shed-storm:~500 -shed 0.1`
// demonstrates the shed exit path deterministically.
//
// Robustness knobs: -fault injects deterministic faults (see
// fault.ParseSpec; e.g. "commit-abort:50,hold-stall:~10:1ms"),
// -fault-seed fixes the injection schedule, and -health-window /
// -relax-factor / -rearm-windows tune the guided controller's
// degradation ladder. Progress knobs: -deadline bounds every Atomic
// call, -escalate-after sets the irrevocable-escalation abort
// threshold, -watchdog-window tunes the livelock watchdog. Model and
// trace files are written atomically (temp file + fsync + rename).
// Exit codes: 1 unexpected, 2 usage, 3 file I/O, 4 pipeline failure,
// 5 transaction deadline exceeded, 6 shed-exhausted (admission control
// rejected the run or more than the -shed budget).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"text/tabwriter"

	"gstm/internal/analyze"
	"gstm/internal/fault"
	"gstm/internal/guide"
	"gstm/internal/harness"
	"gstm/internal/model"
	"gstm/internal/overload"
	"gstm/internal/safeio"
	"gstm/internal/stamp"
	"gstm/internal/tl2"
	"gstm/internal/trace"
	"gstm/internal/tts"
	"gstm/internal/txn"
)

// Exit codes: scripts driving the artifact can tell a typo from a
// broken disk from a failed experiment.
const (
	exitUsage    = 2
	exitIO       = 3
	exitPipeline = 4
	exitDeadline = 5
	exitShed     = 6
)

func main() {
	var (
		bench        = flag.String("bench", "kmeans", "benchmark: "+fmt.Sprint(harness.WorkloadNames))
		threads      = flag.Int("threads", 8, "worker thread count")
		runs         = flag.Int("runs", 20, "number of runs")
		op           = flag.String("op", "default", "operation: mcmc_data|analyze|model|default|ND_mcmc|ND_only|online|overload|inspect|dot|trace")
		modelPath    = flag.String("model", "state_data", "model file path")
		freq         = flag.Float64("freq", 4, "Tfactor: guidance threshold divisor")
		k            = flag.Int("k", 0, "guide progress-escape retries (0 = default)")
		sizeFlag     = flag.String("size", "", "input size override (small|medium|large)")
		seed         = flag.Int64("seed", 1, "workload content seed")
		maxprocs     = flag.Int("gomaxprocs", 0, "override GOMAXPROCS (0 = leave as is)")
		faultSpec    = flag.String("fault", "", "fault injection spec, e.g. commit-abort:50,hold-stall:~10:1ms")
		faultSeed    = flag.Uint64("fault-seed", 1, "seed for the deterministic fault schedule")
		healthWindow = flag.Int("health-window", 0, "health monitor window in admits (0 = default, <0 = disable)")
		relaxFactor  = flag.Float64("relax-factor", 0, "Tfactor multiplier at the relaxed ladder level (0 = default)")
		rearmWindows = flag.Int("rearm-windows", 0, "healthy windows before re-arming a tripped ladder (0 = default)")
		epochEvents  = flag.Int("epoch-events", 0, "online learner epoch length in events (0 = default)")
		stateBudget  = flag.Int("state-budget", 0, "online learner accumulator state budget (0 = default)")
		driftTrip    = flag.Float64("drift-trip", 0, "online learner divergence quarantine threshold in [0,1] (0 = default)")
		deadline     = flag.Duration("deadline", 0, "per-Atomic-call deadline (0 = none); a miss exits with code 5")
		maxInflight  = flag.Int("max-inflight", 0, "admission-controlled in-flight transaction cap (0 = limiter off; for -op overload, 0 = 2x cores)")
		limiterMode  = flag.String("limiter", "aimd", "limit policy: aimd (adaptive) or fixed")
		shedBudget   = flag.Float64("shed", 1, "tolerated shed fraction of admission attempts; exceeding it exits with code 6")
		escAfter     = flag.Int("escalate-after", 0, "aborts before irrevocable escalation (0 = default, <0 = disable)")
		watchdogWin  = flag.Duration("watchdog-window", 0, "livelock watchdog sampling window (0 = default, <0 = disable)")
	)
	flag.Parse()

	if *maxprocs > 0 {
		runtime.GOMAXPROCS(*maxprocs)
	}

	var inj *fault.Injector
	if *faultSpec != "" {
		var err error
		inj, err = fault.ParseSpec(*faultSpec, *faultSeed)
		if err != nil {
			fatalf(exitUsage, "%v", err)
		}
	}
	gopts := guide.Options{
		HealthWindow: *healthWindow,
		RelaxFactor:  *relaxFactor,
		RearmWindows: *rearmWindows,
	}
	limMode, err := overload.ParseMode(*limiterMode)
	if err != nil {
		fatalf(exitUsage, "%v", err)
	}

	e := harness.Experiment{
		Workload:       *bench,
		Threads:        *threads,
		ProfileRuns:    *runs,
		MeasureRuns:    *runs,
		Tfactor:        *freq,
		K:              *k,
		Seed:           *seed,
		Inject:         inj,
		Guide:          gopts,
		TxDeadline:     *deadline,
		EscalateAfter:  *escAfter,
		WatchdogWindow: *watchdogWin,
	}
	if *sizeFlag != "" {
		sz, err := stamp.ParseSize(*sizeFlag)
		if err != nil {
			fatalf(exitUsage, "%v", err)
		}
		e.ProfileSize, e.MeasureSize = sz, sz
	}
	if *maxInflight > 0 {
		e.Overload = overload.New(overload.Options{
			MaxInflight: *maxInflight,
			Mode:        limMode,
			Inject:      inj,
		})
	}

	switch *op {
	case "mcmc_data", "profile":
		m, err := e.Profile()
		if err != nil {
			fatalf(exitPipeline, "profiling: %v", err)
		}
		if err := safeio.WriteFileAtomic(*modelPath, m.Encode); err != nil {
			fatalf(exitIO, "writing model: %v", err)
		}
		rep := analyze.Analyze(m, analyze.Options{Tfactor: *freq})
		fmt.Printf("model written to %s: %d states, %d bytes\n", *modelPath,
			m.NumStates(), m.EncodedSize())
		fmt.Println(rep)

	case "analyze":
		m := loadModel(*modelPath)
		fmt.Println(analyze.Analyze(m, analyze.Options{Tfactor: *freq}))
		st := m.Structure()
		fmt.Printf("structure: %d states (%d with aborts, max tuple %d), %d edges, "+
			"%d terminal, out-degree avg %.1f max %d\n",
			st.States, st.AbortStates, st.MaxAbortsInState, st.Edges,
			st.TerminalStates, st.AvgOutDegree, st.MaxOutDegree)

	case "inspect":
		m := loadModel(*modelPath)
		fmt.Print(m.Dump(20))
		fmt.Println()
		explainHolds(os.Stdout, m, *freq, 20)

	case "dot":
		m := loadModel(*modelPath)
		if err := m.WriteDOT(os.Stdout, model.DOTOptions{Tfactor: *freq, MaxStates: 40}); err != nil {
			fatalf(exitIO, "writing DOT: %v", err)
		}

	case "trace":
		// Record one run's transaction sequence to the -model path (the
		// artifact's per-run sequence files).
		seq, err := recordOneRun(e)
		if err != nil {
			fatalf(exitPipeline, "tracing: %v", err)
		}
		if err := safeio.WriteFileAtomic(*modelPath, func(w io.Writer) error {
			return trace.WriteSequence(w, seq)
		}); err != nil {
			fatalf(exitIO, "writing trace: %v", err)
		}
		fmt.Printf("trace written to %s: %d states\n", *modelPath, len(seq))

	case "model", "ND_mcmc":
		m := loadModel(*modelPath)
		rep := analyze.Analyze(m, analyze.Options{Tfactor: *freq})
		if !rep.Fit {
			fmt.Fprintf(os.Stderr, "warning: %v — guiding anyway\n", rep)
		}
		g := gopts
		g.Tfactor, g.K, g.Inject = *freq, *k, inj
		ctrl := guide.New(m.Prune(*freq), g)
		res, err := e.Measure(ctrl)
		if err != nil {
			fatalf(measureExitCode(err), "guided run: %v", err)
		}
		printSummary("guided", *bench, res, *op == "ND_mcmc")
		reportLimiter(res.Overload, *shedBudget)
		gs := res.Guide
		fmt.Println(gs.Summary())
		fmt.Printf("health: level %s, %d degradations, %d re-arms, %d relaxed admits, %d passthrough admits\n",
			gs.Level, gs.Degradations, gs.Rearms, gs.RelaxedAdmits, gs.PassthroughAdmits)
		harness.RenderStarvation(os.Stdout, gs)
		if inj != nil {
			fmt.Printf("faults: %s\n", inj.Counts())
		}

	case "online":
		// The drifting-workload three-way: passthrough vs frozen
		// offline model vs the continuously-learning online controller,
		// on the same seeded simulator runs. -freq left at its default
		// uses the simulator's own sim-scale Tfactor.
		o := harness.DriftCompareOptions{
			Seeds:       *runs,
			EpochEvents: *epochEvents,
			StateBudget: *stateBudget,
			DriftTrip:   *driftTrip,
		}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "freq" {
				o.Tfactor = *freq
			}
		})
		cmp := harness.CompareDrift(o)
		fmt.Printf("drifting workload, %d seeds: offline model %d states after pruning\n",
			o.Seeds, cmp.ProfiledStates)
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "mode\tfinish stddev\tpost-shift aborts")
		fmt.Fprintf(tw, "passthrough\t%.3f\t%d\n", cmp.PassSD, cmp.PassPost)
		fmt.Fprintf(tw, "frozen offline\t%.3f\t%d\n", cmp.FrozenSD, cmp.FrozenPost)
		fmt.Fprintf(tw, "online\t%.3f\t%d\n", cmp.OnlineSD, cmp.OnlinePost)
		tw.Flush()
		fmt.Printf("frozen gate: %d health-ladder degradations\n", cmp.FrozenDegradations)
		fmt.Printf("online guards: %d quarantines, %d re-arms, %d model swaps\n",
			cmp.OnlineQuarantines, cmp.OnlineRearms, cmp.OnlineSwaps)
		// The verdict is on aborts: finish stddev does not separate the
		// modes at any seed count (EXPERIMENTS.md, "Drift simulator").
		if cmp.OnlinePost < cmp.PassPost && cmp.OnlinePost < cmp.FrozenPost {
			fmt.Println("verdict: online guidance takes the fewest post-shift aborts")
		} else {
			fmt.Println("verdict: online did not take the fewest post-shift aborts on this run")
		}

	case "overload":
		// The contention-collapse curve: each oversubscription factor
		// runs the same seeded workloads with and without the admission
		// controller. -runs is the seed count per point; -threads the
		// simulated core width.
		o := harness.OversubCompareOptions{
			Cores: *threads,
			Seeds: *runs,
			Limiter: overload.Options{
				MaxInflight: *maxInflight,
				Mode:        limMode,
				Inject:      inj,
			},
		}
		cmp := harness.CompareOversub(o)
		fmt.Printf("oversubscription collapse curve: %d cores, %d seeds per point, %s limiter\n",
			cmp.Cores, o.Seeds, limMode)
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "factor\tworkers\tprotected thr\tunprotected thr\tprot ab/commit\tunprot ab/commit\tend limit\tsheds")
		for _, pt := range cmp.Points {
			fmt.Fprintf(tw, "%dx\t%d\t%.3f\t%.3f\t%.2f\t%.2f\t%.1f\t%d\n",
				pt.Factor, pt.Workers, pt.ProtectedThr, pt.UnprotectedThr,
				pt.ProtectedAborts, pt.UnprotectedAborts, pt.EndLimit, pt.Sheds)
		}
		tw.Flush()
		last := cmp.Points[len(cmp.Points)-1]
		fmt.Printf("retention at %dx: protected %.2f, unprotected %.2f (AIMD moves: %d backoffs, %d growths)\n",
			last.Factor, cmp.ProtectedRetention, cmp.UnprotectedRetention, last.Backoffs, last.Growths)
		if cmp.ProtectedRetention >= 0.7 && cmp.ProtectedRetention > cmp.UnprotectedRetention {
			fmt.Println("verdict: admission control holds the collapse curve")
		} else {
			fmt.Println("verdict: protection did not hold on this run (try more -runs seeds)")
		}
		if inj != nil {
			fmt.Printf("faults: %s\n", inj.Counts())
		}
		if last.Acquires > 0 {
			if frac := float64(last.Sheds) / float64(last.Acquires); frac > *shedBudget {
				fatalf(exitShed, "shed-exhausted: %.1f%% of admission attempts shed at %dx (budget %.1f%%)",
					100*frac, last.Factor, 100**shedBudget)
			}
		}

	case "default", "orig", "ND_only":
		res, err := e.Measure(nil)
		if err != nil {
			fatalf(measureExitCode(err), "default run: %v", err)
		}
		printSummary("default", *bench, res, *op == "ND_only")
		reportLimiter(res.Overload, *shedBudget)
		if inj != nil {
			fmt.Printf("faults: %s\n", inj.Counts())
		}

	default:
		fatalf(exitUsage, "unknown op %q", *op)
	}
}

// recordOneRun executes a single run with a collector attached and
// returns its transaction sequence.
func recordOneRun(e harness.Experiment) ([]tts.State, error) {
	w, err := harness.NewWorkload(e.Workload)
	if err != nil {
		return nil, err
	}
	s := tl2.New(tl2.Options{Inject: e.Inject, YieldEvery: txn.YieldEveryFor(e.Threads)})
	col := trace.NewCollector()
	cfg := stamp.Config{Threads: e.Threads, Size: e.MeasureSize, Seed: e.Seed}
	if cfg.Size == stamp.SizeUnset {
		cfg.Size = stamp.Medium
	}
	if _, err := stamp.Run(s, w, cfg, func() { s.SetTracer(col) }); err != nil {
		return nil, err
	}
	seq, _ := col.Sequence()
	return seq, nil
}

func loadModel(path string) *model.TSA {
	f, err := os.Open(path)
	if err != nil {
		fatalf(exitIO, "opening model %s: %v (run -op mcmc_data first)", path, err)
	}
	defer f.Close()
	m, err := model.Decode(f)
	if err != nil {
		fatalf(exitIO, "decoding model %s: %v", path, err)
	}
	return m
}

// printSummary mimics the artifact's AvgSummary files: per-thread mean
// and standard deviation of execution time, plus (for the ND ops) the
// state count and abort distribution.
// measureExitCode distinguishes a shed-exhausted run (exit 6, the
// admission controller rejected calls before they touched the runtime)
// from a transaction deadline miss (exit 5, the runtime ran and lost
// to the clock) from other pipeline failures (exit 4). Shed wins the
// tiebreak when both wrapped sentinels are present — a shed storm is
// the root cause of the deadline misses it provokes.
func measureExitCode(err error) int {
	switch {
	case errors.Is(err, overload.ErrShed):
		return exitShed
	case errors.Is(err, tl2.ErrDeadline):
		return exitDeadline
	}
	return exitPipeline
}

// reportLimiter prints the measured runs' admission-control ledger and
// enforces the -shed budget: rejections beyond the tolerated fraction
// of admission attempts exit shed-exhausted. A run without a limiter
// attached (-max-inflight 0) prints nothing.
func reportLimiter(st overload.Stats, budget float64) {
	if st.Acquires == 0 {
		return
	}
	fmt.Printf("%s\n", st) // Stats.String carries the "overload:" prefix
	if frac := float64(st.Sheds) / float64(st.Acquires); frac > budget {
		fatalf(exitShed, "shed-exhausted: %.1f%% of admission attempts shed (budget %.1f%%)",
			100*frac, 100*budget)
	}
}

func printSummary(mode, bench string, res harness.ModeResult, nd bool) {
	fmt.Printf("%s %s: %d commits, %d aborts, mean wall %.6fs\n",
		bench, mode, res.Commits, res.Aborts, res.MeanWall)
	harness.RenderProgress(os.Stdout, res, 8)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "thread\tmean(s)\tstddev(s)")
	sds := res.ThreadStdDevs()
	for t, xs := range res.ThreadTimes {
		var mean float64
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		fmt.Fprintf(tw, "%d\t%.6f\t%.6f\n", t, mean, sds[t])
	}
	tw.Flush()
	if nd {
		fmt.Printf("%s %d\n", bench, res.DistinctStates)
		for t, h := range res.AbortHist {
			fmt.Printf("abortsThread%d: ", t)
			vs, fs := h.Series()
			for i := range vs {
				fmt.Printf("%d:%d ", vs[i], fs[i])
			}
			fmt.Println()
		}
	}
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gstm: "+format+"\n", args...)
	os.Exit(code)
}
