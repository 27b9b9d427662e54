package gstm

// Online-guidance overhead benchmarks (scripts/bench.sh writes them to
// BENCH_online.json). Three claims, each against a static-gate baseline
// in bench_micro_test.go:
//
//   - BenchmarkOnlineGateOverhead vs BenchmarkGateOverhead: attaching
//     the streaming learner to a guided STM must cost only the tracer
//     fan-out on the commit path — epoch builds and model swaps happen
//     off it.
//   - BenchmarkOnlineObserve (and BenchmarkOnlineObserveParallel, two
//     producers when run with -cpu 2): the raw per-event enqueue (the
//     learner's share of every commit/abort), pinned at 0 allocs/op at
//     steady state by TestHotPathAllocationFree.
//   - BenchmarkOnlineEpochSwap: the full streaming pipeline — dequeue,
//     state rebuild, decay/fold, snapshot audit and lock-free model
//     swap — amortized per event at a sim-scale epoch length.

import (
	"sync/atomic"
	"testing"

	"gstm/internal/guide"
	"gstm/internal/harness"
	"gstm/internal/online"
	"gstm/internal/stamp"
	"gstm/internal/tl2"
	"gstm/internal/tts"
)

// BenchmarkOnlineGateOverhead is BenchmarkGateOverhead with the
// background learner riding the tracer: the commit-path delta between
// the two is the online controller's whole footprint.
func BenchmarkOnlineGateOverhead(b *testing.B) {
	e := harness.Experiment{
		Workload: "kmeans", Threads: 2,
		ProfileRuns: 2, MeasureRuns: 1,
		ProfileSize: stamp.Small, MeasureSize: stamp.Small, Seed: 3,
	}
	m, err := e.Profile()
	if err != nil {
		b.Fatal(err)
	}
	ctrl := guide.New(m, guide.Options{K: 1})
	s := tl2.New(tl2.Options{YieldEvery: -1})
	l := GuideOnline(s, ctrl, OnlineOptions{}, nil)
	defer l.Close()
	v := tl2.NewVar(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Atomic(0, 0, func(tx *tl2.Tx) error {
			tx.Write(v, tx.Read(v)+1)
			return nil
		})
	}
}

// BenchmarkOnlineObserve measures the tracer enqueue alone: one commit
// plus one abort event per iteration into a learner that never drains
// (asynchronous, not started), so the cost is the ring write itself and,
// once full, the drop branch — the two states a loaded system sees.
func BenchmarkOnlineObserve(b *testing.B) {
	ctrl := guide.New(nil, guide.Options{})
	l := online.New(ctrl, online.Options{})
	pair := tts.Pair{Tx: 1, Thread: 1}
	inst := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst++
		l.OnCommit(inst, pair)
		l.OnAbort(pair, inst)
	}
}

// BenchmarkOnlineObserveParallel is BenchmarkOnlineObserve from
// GOMAXPROCS producers at once, each tracing its own thread ID: the
// cost of the ring's claim CAS and the drop counter when producers
// contend for them.
func BenchmarkOnlineObserveParallel(b *testing.B) {
	ctrl := guide.New(nil, guide.Options{})
	l := online.New(ctrl, online.Options{})
	var threads atomic.Uint32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		t := threads.Add(1)
		pair := tts.Pair{Tx: 1, Thread: uint16(t)}
		inst := uint64(t) << 40
		for pb.Next() {
			inst++
			l.OnCommit(inst, pair)
			l.OnAbort(pair, inst)
		}
	})
}

// BenchmarkOnlineEpochSwap pushes an alternating two-thread conflict
// stream through a synchronous learner, so every EpochEvents-th event
// pays a full epoch: dequeue, state rebuild, decay, fold, audit
// and (when the snapshot is healthy) the atomic model swap. The
// reported per-event cost is the amortized streaming-pipeline overhead;
// the swap counter check keeps the bench honest about snapshots
// actually installing.
func BenchmarkOnlineEpochSwap(b *testing.B) {
	ctrl := guide.New(nil, guide.Options{Tfactor: 1.5})
	l := online.New(ctrl, online.Options{
		EpochEvents: 256,
		Tfactor:     1.5,
		MaxMetric:   80, // two-pair stream: tiny model, same bar as the sim
		Synchronous: true,
	})
	pairs := [2]tts.Pair{
		{Tx: 0, Thread: 0},
		{Tx: 1, Thread: 1},
	}
	// Mostly-alternating with every 9th slot repeating: a pure
	// alternation has out-degree 1 (no bias for the analyzer to
	// exploit, so nothing would ever swap in); the repeats give each
	// state a biased second destination, like real jittered traffic.
	var pat [64]int
	x := 0
	for i := range pat {
		pat[i] = x
		if i%9 != 0 {
			x = 1 - x
		}
	}
	inst := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst++
		p := pat[i%len(pat)]
		l.OnCommit(inst, pairs[p])
		l.OnAbort(pairs[1-p], inst)
	}
	b.StopTimer()
	l.Close()
	if st := l.Stats(); b.N > 4096 && st.Swaps == 0 {
		b.Fatalf("no snapshot ever swapped in: %+v", st)
	}
}
