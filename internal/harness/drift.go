package harness

import (
	"math/rand"

	"gstm/internal/guide"
	"gstm/internal/model"
	"gstm/internal/online"
	"gstm/internal/stats"
	"gstm/internal/trace"
	"gstm/internal/tts"
)

// This file is the drifting-workload generator: a deterministic tick
// simulator whose hot set rotates mid-run. Before the
// shift one group of transactions contends; after it, a disjoint group
// does. It exists to measure how guidance regimes cope with drift:
//
//   - passthrough never holds anyone and eats the contention in both
//     phases;
//   - a frozen offline model guides the first phase, then lands in
//     states it has never seen — every admission becomes an unknown
//     pass and the health ladder trips;
//   - an online learner quarantines on the drift signal, relearns the
//     new hot set from the stream, and swaps guidance back in.
//
// The simulator is single-goroutine and seeded: same config + seed →
// same tick trace, which is what lets tests pin recovery behavior and
// lets cmd/gstm -op online report a stable three-way comparison.

// DriftThread describes one simulated worker: it commits TxA until the
// workload shifts, TxB afterwards, taking Dur±1 ticks per attempt and
// resting Rest ticks after each commit (think time — what makes real
// alternation exist for a model to learn), until Quota total commits
// are done.
type DriftThread struct {
	TxA, TxB uint16
	Dur      int
	Rest     int
	Quota    int
}

// DriftConfig configures one simulator run.
type DriftConfig struct {
	// Threads is the worker set; thread IDs are the slice indices.
	Threads []DriftThread
	// Conflicts reports whether two transaction IDs contend: a commit
	// of a aborts every in-flight attempt of b (work lost).
	Conflicts func(a, b uint16) bool
	// ShiftAfter is the total commit count at which every thread
	// rotates from TxA to TxB. ≤ 0 never shifts (profiling runs).
	ShiftAfter int
	// Seed drives the only randomness (per-tick scheduling order and
	// ±1 attempt-length jitter).
	Seed int64
	// Gate, when non-nil, is consulted before each attempt starts
	// (WouldAdmit — the non-blocking probe) and fed the admission
	// outcome (Admit) when the probe passes, so the health ladder sees
	// the unknown-state rate a drifted model produces. A probe that
	// keeps refusing is escaped after EscapeK consecutive stalled
	// ticks, mirroring the gate's own progress escape.
	Gate *guide.Controller
	// Sink, when non-nil, receives the commit/abort event stream —
	// pass the gate itself, or trace.Multi(gate, learner) to let an
	// online learner ride along.
	Sink trace.Tracer
	// EscapeK is the stall budget before a refused attempt starts
	// anyway. ≤ 0 means 8 (guide.DefaultK).
	EscapeK int
}

// DriftResult is one simulator run's outcome.
type DriftResult struct {
	// Finish[t] is the tick thread t met its quota at.
	Finish []int
	// Commits is the total commit count; Aborts the total lost
	// attempts, split into the pre- and post-shift phases.
	Commits, Aborts       int
	PreAborts, PostAborts int
	// Escapes counts gate stalls that exhausted EscapeK.
	Escapes int
	// ShiftTick is the tick the hot set rotated at (0 = never did).
	ShiftTick int
}

// DefaultDriftWorkload returns the standard drifting workload: two
// symmetric threads contend on one hot transaction pair (transactions
// 0 and 1 before the shift, 2 and 3 after it — the same threads, a
// rotated transaction identity, as when a program enters a new phase).
// Each attempt takes Dur±1 ticks with Rest ticks of think time after a
// commit, so the natural passthrough schedule almost alternates — but
// duration jitter keeps re-creating simultaneous-commit races whose
// winner is scheduler noise, and each race costs the loser its whole
// attempt. A TSA profiled from this traffic learns the alternation and
// the gate then enforces it, which is exactly the paper's mechanism:
// pin the likely commit order, and both the aborts and the
// cross-run variance they caused disappear. The conflict relation
// covers both regimes; what changes mid-run is which transactions the
// threads actually run, so every post-shift state is one a pre-shift
// model has never seen.
func DefaultDriftWorkload() ([]DriftThread, func(a, b uint16) bool) {
	threads := []DriftThread{
		{TxA: 0, TxB: 2, Dur: 4, Rest: 5, Quota: 100},
		{TxA: 1, TxB: 3, Dur: 4, Rest: 5, Quota: 100},
	}
	conflicts := func(a, b uint16) bool {
		pre := (a == 0 || a == 1) && (b == 0 || b == 1)
		post := (a == 2 || a == 3) && (b == 2 || b == 3)
		return pre || post
	}
	return threads, conflicts
}

// RunDrift executes one simulator run. Each tick, every unfinished
// thread (in seeded order) either starts an attempt — if idle and the
// gate agrees — or advances the one in flight; a completing attempt
// commits and aborts every in-flight attempt of a conflicting
// transaction. When the total commit count crosses ShiftAfter, every
// thread's next attempt uses its TxB: the hot set has rotated.
func RunDrift(cfg DriftConfig) DriftResult {
	rng := rand.New(rand.NewSource(cfg.Seed))
	escapeK := cfg.EscapeK
	if escapeK <= 0 {
		escapeK = guide.DefaultK
	}
	type worker struct {
		DriftThread
		remaining int
		resting   int
		curTx     uint16 // tx of the attempt in flight
		done      int
		finish    int
		stalls    int
	}
	ths := make([]worker, len(cfg.Threads))
	for i, t := range cfg.Threads {
		ths[i] = worker{DriftThread: t}
	}
	res := DriftResult{Finish: make([]int, len(ths))}
	var instance uint64
	shifted := cfg.ShiftAfter <= 0 // "already shifted" disables the rotation
	left := len(ths)
	for tick := 1; left > 0 && tick < 1<<20; tick++ {
		order := rng.Perm(len(ths))
		for _, i := range order {
			th := &ths[i]
			if th.done >= th.Quota {
				continue
			}
			if th.remaining == 0 {
				if th.resting > 0 {
					th.resting--
					continue
				}
				tx := th.TxA
				if shifted && cfg.ShiftAfter > 0 {
					tx = th.TxB
				}
				pair := tts.Pair{Tx: tx, Thread: uint16(i)}
				if cfg.Gate != nil {
					if ok, _ := cfg.Gate.WouldAdmit(pair); !ok && th.stalls < escapeK {
						th.stalls++
						continue
					} else if ok {
						// Feed the real gate so its counters and health
						// ladder see what the probe decided on; this
						// admit is immediate by construction.
						cfg.Gate.Admit(pair)
					} else {
						res.Escapes++
					}
				}
				th.stalls = 0
				th.curTx = tx
				th.remaining = th.Dur + rng.Intn(2)
				continue
			}
			th.remaining--
			if th.remaining > 0 {
				continue
			}
			pair := tts.Pair{Tx: th.curTx, Thread: uint16(i)}
			instance++
			if cfg.Sink != nil {
				cfg.Sink.OnCommit(instance, pair)
			}
			for j := range ths {
				v := &ths[j]
				if j == i || v.remaining == 0 || !cfg.Conflicts(th.curTx, v.curTx) {
					continue
				}
				v.remaining = 0
				res.Aborts++
				if res.ShiftTick > 0 {
					res.PostAborts++
				} else {
					res.PreAborts++
				}
				if cfg.Sink != nil {
					cfg.Sink.OnAbort(tts.Pair{Tx: v.curTx, Thread: uint16(j)}, instance)
				}
			}
			th.done++
			th.resting = th.Rest
			res.Commits++
			if !shifted && res.Commits >= cfg.ShiftAfter {
				shifted = true
				res.ShiftTick = tick
			}
			if th.done == th.Quota {
				th.finish = tick
				left--
			}
		}
	}
	for i := range ths {
		res.Finish[i] = ths[i].finish
	}
	return res
}

// DriftCompareOptions tunes CompareDrift. The zero value is usable.
type DriftCompareOptions struct {
	// Seeds is how many independent simulator runs each mode measures
	// over (default 8).
	Seeds int
	// ShiftAfter is the commit count at which the hot set rotates
	// (default: half the workload's total quota).
	ShiftAfter int
	// ProfileRuns is how many no-shift runs train the frozen offline
	// model (default 5).
	ProfileRuns int
	// EpochEvents and StateBudget tune the online learner; defaults
	// are sim-scale (32-event epochs, default budget).
	EpochEvents int
	StateBudget int
	// DriftTrip is the learner's divergence quarantine threshold
	// (default online.DefaultDriftTrip).
	DriftTrip float64
	// Tfactor is the guidance threshold divisor (default 1.5, the
	// sim-scale threshold that separates alternation from jitter).
	Tfactor float64
}

// DriftComparison is the three-way drift verdict: passthrough vs a
// frozen offline-profiled model vs the online learner, on the same
// seeded drifting workload.
type DriftComparison struct {
	// ProfiledStates is the frozen model's size (after pruning).
	ProfiledStates int
	// PassSD/FrozenSD/OnlineSD are each mode's mean per-thread
	// finish-time standard deviation across seeds — the paper's primary
	// variance quantity, lower is better.
	PassSD, FrozenSD, OnlineSD float64
	// *Post are post-shift abort totals across seeds: how much hot-set
	// contention each mode absorbed after the rotation.
	PassPost, FrozenPost, OnlinePost int
	// FrozenDegradations counts health-ladder trips of the frozen gate
	// (the drifted model tripping is the expected behavior).
	FrozenDegradations uint64
	// Online guard activity, summed across seeds.
	OnlineQuarantines, OnlineRearms, OnlineSwaps uint64
}

// CompareDrift runs the standard drifting workload through all three
// guidance regimes and reduces to the quantities the online-guidance
// claim rests on: after the shift, the online learner should take fewer
// aborts than both passthrough and the frozen model, and the frozen gate
// should visibly trip its ladder. Finish-time variance is reported beside
// them; it does not separate the modes at any seed count tried.
func CompareDrift(o DriftCompareOptions) DriftComparison {
	if o.Seeds <= 0 {
		o.Seeds = 8
	}
	if o.ProfileRuns <= 0 {
		o.ProfileRuns = 5
	}
	if o.Tfactor <= 0 {
		// Sim-scale default: the drift workload's states have few
		// destinations, so a tight threshold is what separates the
		// alternation signal from jitter noise.
		o.Tfactor = 1.5
	}
	if o.EpochEvents <= 0 {
		o.EpochEvents = 32
	}
	threads, conflicts := DefaultDriftWorkload()
	if o.ShiftAfter <= 0 {
		total := 0
		for _, t := range threads {
			total += t.Quota
		}
		o.ShiftAfter = total / 2
	}

	// Train the frozen model on the pre-shift regime only, exactly as
	// an offline profiling phase would have.
	m := model.New(len(threads))
	for p := 0; p < o.ProfileRuns; p++ {
		col := trace.NewCollector()
		RunDrift(DriftConfig{
			Threads: threads, Conflicts: conflicts,
			Seed: int64(9000 + p), Sink: col,
		})
		seq, _ := col.Sequence()
		m.AddRun(seq)
	}
	pruned := m.Prune(o.Tfactor)

	var cmp DriftComparison
	cmp.ProfiledStates = pruned.NumStates()
	gateOpts := guide.Options{Tfactor: o.Tfactor, HealthWindow: 32}

	perThread := make([][][]float64, 3) // mode → thread → finishes
	for mode := range perThread {
		perThread[mode] = make([][]float64, len(threads))
	}
	record := func(mode int, finish []int) {
		for t, f := range finish {
			perThread[mode][t] = append(perThread[mode][t], float64(f))
		}
	}

	for seed := 0; seed < o.Seeds; seed++ {
		base := DriftConfig{
			Threads: threads, Conflicts: conflicts,
			ShiftAfter: o.ShiftAfter, Seed: int64(1000 + seed),
		}

		pass := RunDrift(base)
		record(0, pass.Finish)
		cmp.PassPost += pass.PostAborts

		frozenCfg := base
		frozen := guide.New(pruned, gateOpts)
		frozenCfg.Gate, frozenCfg.Sink = frozen, frozen
		fr := RunDrift(frozenCfg)
		record(1, fr.Finish)
		cmp.FrozenPost += fr.PostAborts
		cmp.FrozenDegradations += frozen.Stats().Degradations

		onlineCfg := base
		ctrl := guide.New(nil, gateOpts)
		learner := online.New(ctrl, online.Options{
			EpochEvents: o.EpochEvents,
			StateBudget: o.StateBudget,
			DriftTrip:   o.DriftTrip,
			Tfactor:     o.Tfactor,
			Decay:       0.5, // sim-scale: forget fast, epochs are small
			MaxMetric:   80,  // sim models are tiny; the drift guard is the backstop
			Synchronous: true,
		})
		onlineCfg.Gate, onlineCfg.Sink = ctrl, trace.Multi(ctrl, learner)
		on := RunDrift(onlineCfg)
		learner.Close() // flush the final partial epoch
		record(2, on.Finish)
		cmp.OnlinePost += on.PostAborts
		ls := learner.Stats()
		cmp.OnlineQuarantines += ls.Quarantines
		cmp.OnlineRearms += ls.Rearms
		cmp.OnlineSwaps += ls.Swaps
	}

	meanSD := func(mode int) float64 {
		sds := make([]float64, len(perThread[mode]))
		for t, xs := range perThread[mode] {
			sds[t] = stats.StdDev(xs)
		}
		return stats.Mean(sds)
	}
	cmp.PassSD, cmp.FrozenSD, cmp.OnlineSD = meanSD(0), meanSD(1), meanSD(2)
	return cmp
}
