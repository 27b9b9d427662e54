package explorer

import (
	"strings"
	"testing"

	"gstm/internal/libtm"
	"gstm/internal/sched"
	"gstm/internal/tl2"
)

// findViolation explores a deliberately broken runtime until the
// oracle rejects a history, then replays the failing trace to confirm
// the counterexample reproduces. It returns the rendered violation.
func findViolation(t *testing.T, build func(func()) sched.Program) string {
	t.Helper()
	res := sched.Explore(sched.ExploreOptions{
		Strategy:  &sched.RandomWalk{Seed: 1},
		Schedules: 3000,
	}, build)
	if res.Err == nil {
		t.Fatalf("mutation survived %d schedules undetected", res.Schedules)
	}
	msg := res.Err.Error()
	if !strings.Contains(msg, "VIOLATION") {
		t.Fatalf("exploration failed for a non-oracle reason: %v", res.Err)
	}
	if len(res.FailTrace) == 0 {
		t.Fatalf("violation carries no trace to replay: %+v", res)
	}

	// The counterexample is actionable only if it replays: re-run the
	// exact interleaving on a fresh instance and demand the same verdict.
	rep := sched.Explore(sched.ExploreOptions{
		Strategy:  &sched.Replay{Trace: res.FailTrace},
		Schedules: 1,
	}, build)
	if rep.Err == nil {
		t.Fatalf("replaying the failing trace found no violation; original:\n%s", msg)
	}

	t.Logf("violation found at schedule %d and reproduced by replay:\n%s", res.FailSchedule, msg)
	return msg
}

// TestMutationTL2SkipReadPostCheck: disabling TL2's per-read
// validation lets the read-only scanner commit a torn x/y snapshot —
// an opacity violation the explorer must catch.
func TestMutationTL2SkipReadPostCheck(t *testing.T) {
	msg := findViolation(t, TL2Program(TL2Config{
		Workload: WorkloadPair,
		Mutate:   tl2.Mutations{SkipReadPostCheck: true},
	}))
	if !strings.Contains(msg, "OPACITY VIOLATION") {
		t.Errorf("expected an opacity verdict, got:\n%s", msg)
	}
}

// TestMutationTL2SkipReadSetValidation: disabling commit-time read-set
// validation turns concurrent increments into lost updates (the final
// value no longer matches the committed increment count).
func TestMutationTL2SkipReadSetValidation(t *testing.T) {
	findViolation(t, TL2Program(TL2Config{
		Workload: WorkloadIncrement,
		Mutate:   tl2.Mutations{SkipReadSetValidation: true},
	}))
}

// TestMutationLibTMSkipReadValidation: the fully optimistic mode with
// commit-time validation knocked out commits on top of torn invisible
// snapshots — even the committed-only StrictSerializability check
// rejects the history.
func TestMutationLibTMSkipReadValidation(t *testing.T) {
	findViolation(t, LibTMProgram(LibTMConfig{
		Mode:     libtm.FullyOptimistic,
		Workload: WorkloadIncrement,
		Mutate:   libtm.Mutations{SkipReadValidation: true},
	}))
}

// TestMutationLibTMSkipReaderWait: a fully pessimistic writer that
// takes the write lock without waiting for registered visible readers
// tears a scanner's snapshot; visible reads have no commit validation,
// so the scan commits — an opacity violation.
func TestMutationLibTMSkipReaderWait(t *testing.T) {
	msg := findViolation(t, LibTMProgram(LibTMConfig{
		Mode:     libtm.FullyPessimistic,
		Workload: WorkloadPair,
		Mutate:   libtm.Mutations{SkipReaderWait: true},
	}))
	if !strings.Contains(msg, "OPACITY VIOLATION") {
		t.Errorf("expected an opacity verdict, got:\n%s", msg)
	}
}

// TestMutationLibTMSkipVersionBump: a LibTM publish that skips the
// object version bump makes a scanner's commit-time validation accept
// values overwritten mid-scan — torn snapshots commit, and the oracle
// must convict and replay them.
func TestMutationLibTMSkipVersionBump(t *testing.T) {
	findViolation(t, LibTMProgram(LibTMConfig{
		Mode:     libtm.FullyOptimistic,
		Workload: WorkloadPair,
		Mutate:   libtm.Mutations{SkipVersionBump: true},
	}))
}
