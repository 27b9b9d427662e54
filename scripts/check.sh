#!/usr/bin/env bash
# check.sh — the repository's pre-merge gate (see ROADMAP.md).
#
# Runs, in order: formatting, go vet (including the -copylocks guard
# backing tl2.Var/libtm.Obj's no-copy contract), build + full test
# suite (shuffled, so inter-test ordering dependencies can't hide),
# the race detector over both STM runtimes plus the fault matrix
# (injected aborts/stalls must never deadlock the gate) and the shared
# driver's per-thread counter stripes (exact totals on both runtimes,
# thread IDs aliasing, five times over) and the sharded trace
# Collector with the model fold (five times over), a race-mode
# smoke of the schedule explorer and its oracle/scheduler stack
# (-short trims the schedule budgets), a bounded online-controller
# soak under the race detector (the streaming learner building epoch
# snapshots and swapping them into a live gate while the commit path
# runs, and TestDeterministicEpochs twenty times over: one recorded
# stream must give the same epochs, guard decisions and installed model
# inline and on the learner goroutine), an overload-control soak under the race detector (the AIMD
# admission limiter, priority shedding and both runtimes' token
# ledgers hammered by oversubscribed workers, plus the deterministic
# collapse-curve acceptance test), a gate stress under the race
# detector (the lock-free commit advance and CAS-published abort
# extension against a supervisor swapping models, then the class-gated
# commit path against an exact-state reference, then LibTM's lock-free
# object metadata in every mode corner), a fuzz smoke over
# the binary decoders and the tts key codecs, 200 repeats of TL2's
# Preempt scheduling test (it once failed about 1 run in 60) and of the
# fault matrix's snapshot-abort case (it once failed about 1 run in 100),
# and
# gstmlint (the STM-aware transaction-safety linter, checks gstm000..gstm009, including the
# interprocedural gstm006 over the module-wide call graph). The lint
# stage runs -fix -diff as a dry-run gate too — any machine-applicable
# fix left unapplied in the tree fails the build with the diff it
# would make. Finally scripts/benchdiff.sh re-runs the micro-benchmark set
# against the committed BENCH_baseline.json: >15% ns/op regressions
# fail (GSTM_BENCHDIFF_TOL to adjust; GSTM_BENCHDIFF_SKIP_NS=1 on
# hardware that did not record the baseline), and any allocation on a
# benchmark the baseline pins at zero allocs/op fails unconditionally
# — the zero-alloc commit paths are a contract, not a tuning knob. An
# inlining pin follows: TL2's Tx.maybeYield and Tx.Preempt must still
# inline, and nothing
# from the shared transaction driver (internal/txn) may be inlined into
# either runtime's Tx.Read or Tx.Write — the driver is entered per
# Atomic call, never per access.
# Last, the benchmark that judges performance PRs (bench/, a module of
# its own that tier-1 never compiles) is vetted, tested and run for two
# seconds on all four workloads untraced and once more traced (bank-hot:
# a gate that holds, plus the cost-ladder probes every traced pass runs on
# ladder-disjoint's model), so a change under internal/ that stops it
# building or trips one of its anti-vacuity guards fails here and not
# after merge.
# Exits non-zero on the first failure. CI runs this same script
# (.github/workflows/ci.yml). Set GSTM_FUZZTIME to lengthen the fuzz
# smoke (default 10s per target).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== build + tests (shuffled) =="
go build ./...
go test -shuffle=on ./...

echo "== race detector (STM runtimes + fault matrix + trace capture) =="
go test -race ./internal/tl2 ./internal/libtm
go test -race -run TestFaultMatrix ./internal/harness
go test -race -count=5 -run TestCoreCountersExact ./internal/txn
go test -race -count=5 ./internal/trace ./internal/model

echo "== explorer smoke (scheduler + oracle, race mode) =="
go test -race -short ./internal/sched ./internal/oracle ./internal/explorer

echo "== online controller soak (epoch swaps under race) =="
# Bounded runs with the background learner swapping models into the
# live gate: the commit path, the epoch pipeline and the drift guards
# all racing for real. The learner's own package races alongside.
go test -race ./internal/online
go test -race -count=20 -run TestDeterministicEpochs ./internal/online
go test -race -run TestOnlineSoak ./internal/harness

echo "== overload soak (admission control under race) =="
# The AIMD limiter's own package races, then oversubscribed workers
# hammer both runtimes through shared limiters (every call accounted
# exactly once: commit, shed or deadline; token ledger drains to
# zero), and the deterministic oversubscription simulator proves the
# collapse-curve acceptance claim: protected throughput at 8x holds
# >= 70% of its 1x peak while unprotected demonstrably degrades.
go test -race ./internal/overload
go test -race -run 'TestOverloadSoak|TestFaultMatrix/Overload' ./internal/harness
go test -run 'TestOversub' ./internal/harness

echo "== gate stress (lock-free commit advance under race) =="
go test -race -count=5 -run TestGateStress ./internal/guide
# Class-gated commits against the exact-state rule, random TSAs and event
# sequences, with the two seeded mutations it must catch.
go test -race -count=5 -run 'TestClassGating' ./internal/guide
# LibTM's lock-free object metadata (CAS write locks, load-only invisible
# reads and validation) in every mode corner: killer attribution per
# conflict kind, isolation, exact counters.
go test -race -count=5 -run 'TestKillerAttributionParity|TestInvariantPreservedAllModes|TestConcurrentCountersExactAllModes' ./internal/libtm

echo "== preempt repeat (TL2 Preempt yields, or does not, as configured) =="
go test -run 'TestPreempt/Gosched' -count=200 ./internal/tl2

echo "== snapshot-abort repeat (the learner quarantines a gate it can never feed) =="
go test -run 'TestFaultMatrix/OnlineSnapshotAbort' -count=200 ./internal/harness

echo "== fuzz smoke (binary decoders + tts key codecs) =="
FUZZTIME="${GSTM_FUZZTIME:-10s}"
go test -run='^$' -fuzz=FuzzModelDecode -fuzztime="$FUZZTIME" ./internal/model
go test -run='^$' -fuzz=FuzzReadSequence -fuzztime="$FUZZTIME" ./internal/trace
go test -run='^$' -fuzz=FuzzPairEncode -fuzztime="$FUZZTIME" ./internal/tts
go test -run='^$' -fuzz=FuzzStateEncode -fuzztime="$FUZZTIME" ./internal/tts

echo "== gstmlint =="
go run ./cmd/gstmlint ./...

echo "== gstmlint fix gate (dry run) =="
# A non-empty diff means a machine-applicable fix was left unapplied;
# the diff itself is the error message.
fixdiff=$(go run ./cmd/gstmlint -fix -diff ./... || true)
if [ -n "$fixdiff" ]; then
    echo "gstmlint -fix would change the tree; apply or waive:" >&2
    echo "$fixdiff" >&2
    exit 1
fi

echo "== benchdiff (micro set vs committed baseline) =="
./scripts/benchdiff.sh

echo "== inlining pin (access path stays concrete, driver stays off it) =="
for pkg in tl2 libtm; do
    src="internal/$pkg/$pkg.go"
    trace=$(go build -gcflags=-m "./internal/$pkg" 2>&1)
    if [ "$pkg" = tl2 ] && ! grep -qF 'can inline (*Tx).maybeYield' <<<"$trace"; then
        echo "internal/tl2: (*Tx).maybeYield no longer inlines; Read and Write now pay a call per access" >&2
        exit 1
    fi
    if [ "$pkg" = tl2 ] && ! grep -qF 'can inline (*Tx).Preempt' <<<"$trace"; then
        echo "internal/tl2: (*Tx).Preempt no longer inlines; stamp.Spin now pays a call per preemption point with interleaving off" >&2
        exit 1
    fi
    # The compiler reports every call it inlined, transitively, at the
    # position of the outermost call site; keep those inside Read/Write.
    leaked=$(awk -v src="$src" '
        FNR == NR {
            if ($0 ~ /^func \(tx \*Tx\) (Read|Write)\(/) open = 1
            if (open) body[FNR] = 1
            if (open && $0 ~ /^}/) open = 0
            next
        }
        /inlining call to/ && /txn\./ {
            split($1, pos, ":")
            if (pos[1] == src && (pos[2] in body)) print
        }' "$src" - <<<"$trace")
    if [ -n "$leaked" ]; then
        echo "$src: internal/txn code inlined into (*Tx).Read/(*Tx).Write:" >&2
        echo "$leaked" >&2
        exit 1
    fi
    echo "  ok       $pkg"
done

echo "== gstmbench still builds and runs (bench/ is outside tier-1) =="
(cd bench && go vet ./... && go test ./...)
for run in "ladder-disjoint --trace 0" "bank-hot --trace 0" "stamp-suite --trace 0" \
    "synquake-quadrants --trace 0" "bank-hot --trace 1"; do
    # shellcheck disable=SC2086 # $run is a workload name plus a flag
    last=$(bash bench/run.sh --workload $run --seed 1 --seconds 2 2>/dev/null | tail -n 1 || true)
    case "$last" in
    *'"correct":true'*) echo "  ok       $run" ;;
    *)
        echo "bash bench/run.sh --workload $run --seed 1 --seconds 2 did not end in \"correct\":true" >&2
        echo "(rerun it for the report on standard error); last line: $(echo "$last" | cut -c1-200)" >&2
        exit 1
        ;;
    esac
done

echo "all checks passed"
