package explorer

import (
	"strings"
	"testing"

	"gstm/internal/libtm"
	"gstm/internal/sched"
	"gstm/internal/tl2"
)

// TestTL2LimitedExploration drives the admission-controlled path —
// every Atomic call passes the overload limiter's token gate, with the
// cap one below the worker count so full contention always queues a
// worker in the wait loop — across >= 1000 schedules, every history
// checked at Opacity. requireAdmission inside the program makes a
// disengaged or leaking limiter a failure: exact acquire count, zero
// sheds, ledger drained to zero after every schedule.
func TestTL2LimitedExploration(t *testing.T) {
	cases := []struct {
		stockCase
		cfg TL2Config
	}{
		{stockCase{"mix/random", &sched.RandomWalk{Seed: 31}, budget(t, 600)},
			TL2Config{Path: PathLimited, Workload: WorkloadMix}},
		{stockCase{"mix/pct", &sched.PCT{Seed: 32, Depth: 3}, budget(t, 300)},
			TL2Config{Path: PathLimited, Workload: WorkloadMix}},
		{stockCase{"increment/random", &sched.RandomWalk{Seed: 33}, budget(t, 250)},
			TL2Config{Path: PathLimited, Workload: WorkloadIncrement}},
	}
	total := 0
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			total += runStock(t, c.strat, c.n, TL2Program(c.cfg))
		})
	}
	if !testing.Short() && total < 1000 {
		t.Errorf("explored %d limited schedules, want >= 1000", total)
	}
}

// TestLibTMLimitedExploration is the LibTM half: the same token gate in
// front of both read protocols (the pessimistic mode's writer-waits-
// for-readers cannot deadlock against admission, because a waited-for
// reader always holds a token and admission waiters hold nothing),
// >= 1000 schedules.
func TestLibTMLimitedExploration(t *testing.T) {
	cases := []struct {
		stockCase
		cfg LibTMConfig
	}{
		{stockCase{"optimistic/mix/random", &sched.RandomWalk{Seed: 41}, budget(t, 600)},
			LibTMConfig{Mode: libtm.FullyOptimistic, Path: PathLimited, Workload: WorkloadMix}},
		{stockCase{"pessimistic/mix/random", &sched.RandomWalk{Seed: 42}, budget(t, 300)},
			LibTMConfig{Mode: libtm.FullyPessimistic, Path: PathLimited, Workload: WorkloadMix}},
		{stockCase{"optimistic/increment/pct", &sched.PCT{Seed: 43, Depth: 3}, budget(t, 250)},
			LibTMConfig{Mode: libtm.FullyOptimistic, Path: PathLimited, Workload: WorkloadIncrement}},
	}
	total := 0
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			total += runStock(t, c.strat, c.n, LibTMProgram(c.cfg))
		})
	}
	if !testing.Short() && total < 1000 {
		t.Errorf("explored %d limited schedules, want >= 1000", total)
	}
}

// TestMutationLimitedStillCaught: the limiter must not mask protocol
// defects. WorkloadMix keeps two transactions genuinely concurrent
// under the cap (3 workers, cap 2), so a TL2 runtime with per-read
// validation knocked out still tears the scanner's snapshot — and the
// explorer must still catch it through the admission gate. This pins
// that the limited path changes when transactions run, never what they
// are allowed to commit.
func TestMutationLimitedStillCaught(t *testing.T) {
	msg := findViolation(t, TL2Program(TL2Config{
		Path:     PathLimited,
		Workload: WorkloadMix,
		Mutate:   tl2.Mutations{SkipReadPostCheck: true},
	}))
	if !strings.Contains(msg, "OPACITY VIOLATION") {
		t.Errorf("expected an opacity verdict, got:\n%s", msg)
	}
}
