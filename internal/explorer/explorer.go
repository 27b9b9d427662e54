// Package explorer assembles the pieces of the systematic-testing
// stack into runnable verification programs: small transactional
// workloads over both STM runtimes (internal/tl2, internal/libtm),
// executed under the deterministic schedule explorer (internal/sched)
// with every recorded history checked against the opacity oracle
// (internal/oracle).
//
// Each builder returns the `build func(yield func()) sched.Program`
// shape sched.Explore consumes: per schedule it constructs a fresh STM
// instance wired to the cooperative scheduler's yield hook, fresh
// transactional locations, and a fresh history recorder, so schedules
// are independent and replayable. The Program's Check harvests the
// history plus the final (non-transactionally read) memory state and
// searches for a sequential witness; a missing witness renders the
// full counterexample interleaving into the returned error.
//
// The same builders serve two test suites: the stock suites prove both
// runtimes correct across thousands of explored schedules (plain,
// irrevocable-escalation and guided-admission paths), and the mutation
// suites arm a deliberate protocol defect (tl2.Mutations /
// libtm.Mutations) and assert the explorer finds a violation — the
// oracle's own sensitivity proof.
package explorer

import (
	"fmt"

	"gstm/internal/guide"
	"gstm/internal/libtm"
	"gstm/internal/model"
	"gstm/internal/oracle"
	"gstm/internal/overload"
	"gstm/internal/sched"
	"gstm/internal/tl2"
	"gstm/internal/tts"
)

// Path selects which runtime machinery a workload exercises.
type Path int

// Paths.
const (
	// PathPlain runs ordinary optimistic transactions only.
	PathPlain Path = iota
	// PathEscalation sets EscalateAfter=1 so any abort escalates to the
	// irrevocable serial path; the TL2 variant additionally runs one
	// worker through AtomicIrrevocable directly.
	PathEscalation
	// PathGuided installs a guide.Controller (built from a synthetic
	// TSA model over the workload's pairs) as tracer and admission gate.
	PathGuided
	// PathLimited attaches an overload.Limiter (internal/overload) with
	// a fixed in-flight cap one below the worker count, so every
	// schedule drives at least one worker through the admission wait
	// loop while the admitted workers still conflict for real. The
	// limiter's Yield hook is the scheduler's, making the wait loop a
	// first-class interleaving point, and the program's Check requires
	// the token ledger to balance exactly.
	PathLimited
)

// Workload selects the transactional program the workers run.
type Workload int

// Workloads.
const (
	// WorkloadMix is the general conflict mix over x, y, z: a transfer
	// (x -= 1, y += 1), a read-modify-write of z that also subscribes to
	// x, and a full read-only scan. Three workers.
	WorkloadMix Workload = iota
	// WorkloadPair is an invariant-pair writer (keeps x == y by reading
	// x and writing x+1 to both) against a read-only scanner. A torn
	// scan — x and y from different writer commits — has no sequential
	// witness. Two workers.
	WorkloadPair
	// WorkloadIncrement is two blind read-modify-write increments of a
	// single location: the canonical lost-update detector (the final
	// value must equal the number of committed increments). Two workers.
	WorkloadIncrement
)

// defaultRounds is the per-worker transaction count when Config.Rounds
// is zero. Two rounds keeps the committed-transaction count well inside
// the oracle's exhaustive-witness range while still exercising histories
// where one worker commits twice around another's attempt.
const defaultRounds = 2

// TL2Config configures a TL2 exploration program. TL2 guarantees
// opacity (per-read validation), so its histories are always checked at
// oracle.Opacity.
type TL2Config struct {
	Path     Path
	Workload Workload
	// Rounds is the per-worker transaction count (0 = defaultRounds).
	Rounds int
	// Mutate arms a deliberate protocol defect (mutation suites only).
	Mutate tl2.Mutations
}

// LibTMConfig configures a LibTM exploration program. The checking
// level follows the mode's actual guarantee; see LevelFor.
type LibTMConfig struct {
	Mode     libtm.Mode
	Path     Path
	Workload Workload
	Rounds   int
	Mutate   libtm.Mutations
}

// LevelFor maps a libtm mode to the property it guarantees. The fully
// pessimistic configuration (visible reads, writers wait for readers)
// protects even aborted attempts' snapshots and is checked at Opacity.
// Every other configuration runs doomed attempts on stale snapshots
// (invisible reads validate at commit; visible reads with AbortReaders
// doom a reader that may already be mid-scan under free concurrency),
// so those are checked at StrictSerializability — committed
// transactions only.
func LevelFor(m libtm.Mode) oracle.Level {
	if m.Reads == libtm.VisibleReads && m.Resolution == libtm.WaitForReaders {
		return oracle.Opacity
	}
	return oracle.StrictSerializability
}

// workloadLocNames returns the location names a workload uses, in
// recorder registration order (so Final maps use index i for name i).
func workloadLocNames(w Workload) []string {
	switch w {
	case WorkloadPair:
		return []string{"x", "y"}
	case WorkloadIncrement:
		return []string{"x"}
	default:
		return []string{"x", "y", "z"}
	}
}

// workloadPairs returns the (txID, thread) pair each worker runs under.
func workloadPairs(w Workload) []tts.Pair {
	n := 2
	if w == WorkloadMix {
		n = 3
	}
	ps := make([]tts.Pair, n)
	for i := range ps {
		ps[i] = tts.Pair{Tx: uint16(100 + i), Thread: uint16(i)}
	}
	return ps
}

// workloadModel builds a synthetic TSA over the workload's pairs for
// the guided path: every pair commits in forward and reverse order so
// the guide has known states to admit through while still exercising
// the hold loop (and its Yield hook) on out-of-model interleavings. The
// workloads' transactions all conflict; the model says so, or the guide
// would find nobody worth holding.
func workloadModel(w Workload) *model.TSA {
	ps := workloadPairs(w)
	fwd := make([]tts.State, len(ps))
	rev := make([]tts.State, len(ps))
	for i, p := range ps {
		fwd[i] = tts.State{Commit: p}
		rev[len(ps)-1-i] = tts.State{Commit: p}
	}
	var run []tts.State
	for i := 0; i < 4; i++ {
		run = append(run, fwd...)
		run = append(run, rev...)
	}
	return model.Build(len(ps), run).Prune(4).AssumeAllConflict()
}

// limitedLimiter builds the admission controller for PathLimited: a
// fixed cap of workers-1 (floor 1) so full contention always queues
// exactly one worker, ModeFixed so no wall-clock AIMD window can make
// schedule fingerprints depend on real time, and the scheduler's yield
// hook in the wait loop so queued admission is explored like any other
// blocking point.
func limitedLimiter(w Workload, yield func()) *overload.Limiter {
	cap := len(workloadPairs(w)) - 1
	if cap < 1 {
		cap = 1
	}
	return overload.New(overload.Options{
		MaxInflight: cap,
		MinInflight: 1,
		Mode:        overload.ModeFixed,
		Yield:       yield,
	})
}

// limitedCalls is the exact number of Acquire calls a clean PathLimited
// schedule must make: one per Atomic call.
func limitedCalls(w Workload, rounds int) uint64 {
	return uint64(len(workloadPairs(w)) * rounds)
}

// requireAdmission wraps a Program.Check so a PathLimited schedule only
// passes if the limiter actually ran every call and its token ledger
// drained: a stock program must never shed, every Atomic call acquires
// exactly once (retries re-use the token), and nothing
// may remain in flight or queued after the workers join.
func requireAdmission(inner func(sched.RunResult) error, lim *overload.Limiter, calls uint64) func(sched.RunResult) error {
	return func(r sched.RunResult) error {
		if err := inner(r); err != nil {
			return err
		}
		st := lim.Stats()
		if st.Sheds != 0 {
			return fmt.Errorf("limited: stock program shed %d calls (%s)", st.Sheds, st)
		}
		if st.Acquires != calls {
			return fmt.Errorf("limited: %d acquires, want exactly %d — one per Atomic call (%s)", st.Acquires, calls, st)
		}
		if st.Inflight != 0 || st.Waiting != 0 {
			return fmt.Errorf("limited: token ledger not drained: %d in flight, %d waiting (%s)", st.Inflight, st.Waiting, st)
		}
		return nil
	}
}

// guideOptions is the deterministic guide configuration for the guided
// path: small K so holds resolve quickly, health monitor off (its
// windowed state is orthogonal here), and the scheduler's yield hook
// in the hold loop.
func guideOptions(yield func()) guide.Options {
	return guide.Options{K: 2, HealthWindow: -1, Yield: yield}
}

// checkFn builds a Program.Check: worker errors first, then the oracle
// verdict over the recorded history pinned to the observed final state.
func checkFn(rec *oracle.Recorder, level oracle.Level, errs []error, final []func() int64) func(sched.RunResult) error {
	return func(sched.RunResult) error {
		for w, err := range errs {
			if err != nil {
				return fmt.Errorf("worker %d failed: %w", w, err)
			}
		}
		fin := make(map[int]int64, len(final))
		for i, f := range final {
			fin[i] = f()
		}
		h := rec.History()
		v, err := oracle.Check(h, oracle.CheckOptions{Level: level, Final: fin})
		if err != nil {
			return fmt.Errorf("oracle inconclusive: %w", err)
		}
		if v != nil {
			return fmt.Errorf("%s", v.Render(h))
		}
		return nil
	}
}

// TL2Program returns a schedule-program builder for sched.Explore over
// the TL2 runtime.
func TL2Program(cfg TL2Config) func(yield func()) sched.Program {
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = defaultRounds
	}
	return func(yield func()) sched.Program {
		opts := tl2.Options{
			Yield:          yield,
			YieldEvery:     1,
			LockSpin:       2,
			EscalateAfter:  -1,
			WatchdogWindow: -1,
			Mutate:         cfg.Mutate,
		}
		if cfg.Path == PathEscalation {
			opts.EscalateAfter = 1
		}
		var lim *overload.Limiter
		if cfg.Path == PathLimited {
			lim = limitedLimiter(cfg.Workload, yield)
			opts.Overload = lim
		}
		s := tl2.New(opts)
		rec := oracle.NewRecorder()
		s.SetMonitor(rec)

		names := workloadLocNames(cfg.Workload)
		locs := make([]*tl2.Var, len(names))
		final := make([]func() int64, len(names))
		for i, nm := range names {
			v := tl2.NewVar(0)
			rec.Register(v, nm, 0)
			locs[i] = v
			final[i] = v.Value
		}
		if cfg.Path == PathGuided {
			ctrl := guide.New(workloadModel(cfg.Workload), guideOptions(yield))
			s.SetTracer(ctrl)
			s.SetGate(ctrl)
		}
		bodies, errs := tl2Bodies(s, cfg, rounds, locs)
		check := checkFn(rec, oracle.Opacity, errs, final)
		if lim != nil {
			check = requireAdmission(check, lim, limitedCalls(cfg.Workload, rounds))
		}
		return sched.Program{
			Bodies: bodies,
			Check:  check,
		}
	}
}

// tl2Bodies constructs the workload's worker functions over a TL2
// instance. The returned errs slice is written by worker w at index w;
// the scheduler's Run waits for every worker before Check reads it.
// Every workload shares locs on purpose: conflicting schedules are the
// subject under test.
func tl2Bodies(s *tl2.STM, cfg TL2Config, rounds int, locs []*tl2.Var) ([]func(), []error) {
	switch cfg.Workload {
	case WorkloadPair:
		x, y := locs[0], locs[1]
		errs := make([]error, 2)
		writer := func() {
			for r := 0; r < rounds; r++ {
				if err := s.Atomic(0, 100, func(tx *tl2.Tx) error {
					a := tx.Read(x)
					tx.Write(x, a+1)
					tx.Write(y, a+1)
					return nil
				}); err != nil {
					errs[0] = err
					return
				}
			}
		}
		scanner := func() {
			for r := 0; r < rounds; r++ {
				if err := s.Atomic(1, 101, func(tx *tl2.Tx) error {
					_ = tx.Read(x)
					_ = tx.Read(y)
					return nil
				}); err != nil {
					errs[1] = err
					return
				}
			}
		}
		return []func(){writer, scanner}, errs

	case WorkloadIncrement:
		x := locs[0]
		errs := make([]error, 2)
		inc := func(w int) func() {
			return func() {
				for r := 0; r < rounds; r++ {
					if err := s.Atomic(uint16(w), uint16(100+w), func(tx *tl2.Tx) error {
						v := tx.Read(x)
						tx.Write(x, v+1)
						return nil
					}); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}
		return []func(){inc(0), inc(1)}, errs

	default: // WorkloadMix
		x, y, z := locs[0], locs[1], locs[2]
		errs := make([]error, 3)
		transfer := func() {
			for r := 0; r < rounds; r++ {
				if err := s.Atomic(0, 100, func(tx *tl2.Tx) error {
					a := tx.Read(x)
					b := tx.Read(y)
					tx.Write(x, a-1)
					tx.Write(y, b+1)
					return nil
				}); err != nil {
					errs[0] = err
					return
				}
			}
		}
		rmw := func() {
			for r := 0; r < rounds; r++ {
				if err := s.Atomic(1, 101, func(tx *tl2.Tx) error {
					v := tx.Read(z)
					tx.Write(z, v+1)
					_ = tx.Read(x) // subscribe: a concurrent transfer conflicts
					return nil
				}); err != nil {
					errs[1] = err
					return
				}
			}
		}
		var scan func()
		if cfg.Path == PathEscalation {
			// Cover the direct irrevocable entry point too.
			scan = func() {
				for r := 0; r < rounds; r++ {
					if err := s.AtomicIrrevocable(2, 102, func(tx *tl2.IrrevTx) error {
						_ = tx.Read(x)
						_ = tx.Read(y)
						_ = tx.Read(z)
						return nil
					}); err != nil {
						errs[2] = err
						return
					}
				}
			}
		} else {
			scan = func() {
				for r := 0; r < rounds; r++ {
					if err := s.Atomic(2, 102, func(tx *tl2.Tx) error {
						_ = tx.Read(x)
						_ = tx.Read(y)
						_ = tx.Read(z)
						return nil
					}); err != nil {
						errs[2] = err
						return
					}
				}
			}
		}
		return []func(){transfer, rmw, scan}, errs
	}
}

// LibTMProgram returns a schedule-program builder for sched.Explore
// over the LibTM runtime.
func LibTMProgram(cfg LibTMConfig) func(yield func()) sched.Program {
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = defaultRounds
	}
	return func(yield func()) sched.Program {
		opts := libtm.Options{
			Mode:           cfg.Mode,
			Yield:          yield,
			YieldEvery:     1,
			WaitSpin:       4,
			EscalateAfter:  -1,
			WatchdogWindow: -1,
			Mutate:         cfg.Mutate,
		}
		if cfg.Path == PathEscalation {
			opts.EscalateAfter = 1
		}
		var lim *overload.Limiter
		if cfg.Path == PathLimited {
			lim = limitedLimiter(cfg.Workload, yield)
			opts.Overload = lim
		}
		s := libtm.New(opts)
		rec := oracle.NewRecorder()
		s.SetMonitor(rec)

		names := workloadLocNames(cfg.Workload)
		locs := make([]*libtm.Obj, len(names))
		final := make([]func() int64, len(names))
		for i, nm := range names {
			o := libtm.NewObj(0)
			rec.Register(o, nm, 0)
			locs[i] = o
			final[i] = o.Value
		}
		if cfg.Path == PathGuided {
			ctrl := guide.New(workloadModel(cfg.Workload), guideOptions(yield))
			s.SetTracer(ctrl)
			s.SetGate(ctrl)
		}
		bodies, errs := libtmBodies(s, cfg, rounds, locs)
		check := checkFn(rec, LevelFor(cfg.Mode), errs, final)
		if lim != nil {
			check = requireAdmission(check, lim, limitedCalls(cfg.Workload, rounds))
		}
		return sched.Program{
			Bodies: bodies,
			Check:  check,
		}
	}
}

// libtmBodies constructs the workload's worker functions over a LibTM
// instance (same shapes as tl2Bodies; LibTM has no public irrevocable
// entry point, so escalation coverage comes from EscalateAfter=1).
// Every workload shares locs on purpose: conflicting schedules are the
// subject under test.
func libtmBodies(s *libtm.STM, cfg LibTMConfig, rounds int, locs []*libtm.Obj) ([]func(), []error) {
	switch cfg.Workload {
	case WorkloadPair:
		x, y := locs[0], locs[1]
		errs := make([]error, 2)
		writer := func() {
			for r := 0; r < rounds; r++ {
				if err := s.Atomic(0, 100, func(tx *libtm.Tx) error {
					a := tx.Read(x)
					tx.Write(x, a+1)
					tx.Write(y, a+1)
					return nil
				}); err != nil {
					errs[0] = err
					return
				}
			}
		}
		scanner := func() {
			for r := 0; r < rounds; r++ {
				if err := s.Atomic(1, 101, func(tx *libtm.Tx) error {
					_ = tx.Read(x)
					_ = tx.Read(y)
					return nil
				}); err != nil {
					errs[1] = err
					return
				}
			}
		}
		return []func(){writer, scanner}, errs

	case WorkloadIncrement:
		x := locs[0]
		errs := make([]error, 2)
		inc := func(w int) func() {
			return func() {
				for r := 0; r < rounds; r++ {
					if err := s.Atomic(uint16(w), uint16(100+w), func(tx *libtm.Tx) error {
						v := tx.Read(x)
						tx.Write(x, v+1)
						return nil
					}); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}
		return []func(){inc(0), inc(1)}, errs

	default: // WorkloadMix
		x, y, z := locs[0], locs[1], locs[2]
		errs := make([]error, 3)
		transfer := func() {
			for r := 0; r < rounds; r++ {
				if err := s.Atomic(0, 100, func(tx *libtm.Tx) error {
					a := tx.Read(x)
					b := tx.Read(y)
					tx.Write(x, a-1)
					tx.Write(y, b+1)
					return nil
				}); err != nil {
					errs[0] = err
					return
				}
			}
		}
		rmw := func() {
			for r := 0; r < rounds; r++ {
				if err := s.Atomic(1, 101, func(tx *libtm.Tx) error {
					v := tx.Read(z)
					tx.Write(z, v+1)
					_ = tx.Read(x) // subscribe: a concurrent transfer conflicts
					return nil
				}); err != nil {
					errs[1] = err
					return
				}
			}
		}
		scan := func() {
			for r := 0; r < rounds; r++ {
				if err := s.Atomic(2, 102, func(tx *libtm.Tx) error {
					_ = tx.Read(x)
					_ = tx.Read(y)
					_ = tx.Read(z)
					return nil
				}); err != nil {
					errs[2] = err
					return
				}
			}
		}
		return []func(){transfer, rmw, scan}, errs
	}
}
