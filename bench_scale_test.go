package gstm

// Multi-core scalability suite for the zero-alloc commit paths: the
// BenchmarkScale* family is run by scripts/bench.sh's fifth stanza
// with `-cpu 1,2,4,8 -benchmem`, which records ns/op, allocs/op and
// the speedup relative to the 1-core row of the same benchmark into
// BENCH_scale.json. The matrix covers both runtimes (TL2, LibTM on the
// pooled descriptor path) and the guide-gated commit path.
//
// The TestScale*AllocFree companions pin the allocation claims with
// testing.AllocsPerRun (meaningless under -race, so they skip there):
// the LibTM RMW path, the TL2 RMW path and the gate-admission path
// must stay at exactly zero allocations per transaction.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"gstm/internal/guide"
	"gstm/internal/libtm"
	"gstm/internal/model"
	"gstm/internal/race"
	"gstm/internal/tl2"
	"gstm/internal/tts"
)

// scaleSlots is the size of the per-worker location pools: comfortably
// above any -cpu value the suite runs so parallel workers touch
// disjoint locations (the clock/pool machinery, not data conflicts,
// is what the disjoint benchmarks measure).
const scaleSlots = 64

// workerIDs hands each RunParallel goroutine a stable small integer,
// used both as the thread ID and as the disjoint-location index.
type workerIDs struct{ next atomic.Uint32 }

func (w *workerIDs) get() uint16 { return uint16(w.next.Add(1)-1) % scaleSlots }

// BenchmarkScaleTL2RMW: disjoint read-modify-write transactions — no
// data conflicts, so the shared commit clock is the only cross-thread
// cache line.
func BenchmarkScaleTL2RMW(b *testing.B) {
	s := tl2.New(tl2.Options{YieldEvery: -1})
	vars := make([]*tl2.Var, scaleSlots)
	for i := range vars {
		vars[i] = tl2.NewVar(0)
	}
	var ids workerIDs
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := ids.get()
		v := vars[id]
		for pb.Next() {
			_ = s.Atomic(id, id, func(tx *tl2.Tx) error {
				tx.Write(v, tx.Read(v)+1)
				return nil
			})
		}
	})
}

// BenchmarkScaleTL2ReadOnly: a shared 10-element scan per transaction.
// Read-only commits never touch the clock's write side, so they should
// scale.
func BenchmarkScaleTL2ReadOnly(b *testing.B) {
	s := tl2.New(tl2.Options{YieldEvery: -1})
	a := tl2.NewArray(10, 1)
	var ids workerIDs
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := ids.get()
		for pb.Next() {
			_ = s.Atomic(id, id, func(tx *tl2.Tx) error {
				var sum int64
				for j := 0; j < 10; j++ {
					sum += a.Get(tx, j)
				}
				_ = sum
				return nil
			})
		}
	})
}

// BenchmarkScaleTL2ContendedCounter: every thread increments one
// shared counter — the worst case for any clock organization because
// data conflicts serialize commits anyway.
func BenchmarkScaleTL2ContendedCounter(b *testing.B) {
	s := tl2.New(tl2.Options{})
	v := tl2.NewVar(0)
	var ids workerIDs
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := ids.get()
		for pb.Next() {
			_ = s.Atomic(id, id, func(tx *tl2.Tx) error {
				tx.Write(v, tx.Read(v)+1)
				return nil
			})
		}
	})
}

// BenchmarkScaleLibTMRMW: disjoint read-modify-writes over LibTM's
// pooled descriptor path (fully optimistic mode), the runtime's
// zero-alloc acceptance row.
func BenchmarkScaleLibTMRMW(b *testing.B) {
	s := libtm.New(libtm.Options{Mode: libtm.FullyOptimistic, YieldEvery: -1})
	objs := make([]*libtm.Obj, scaleSlots)
	for i := range objs {
		objs[i] = libtm.NewObj(0)
	}
	var ids workerIDs
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := ids.get()
		o := objs[id]
		for pb.Next() {
			_ = s.Atomic(id, id, func(tx *libtm.Tx) error {
				tx.Write(o, tx.Read(o)+1)
				return nil
			})
		}
	})
}

// libtmSharedReads is BenchmarkLibTMSharedReads's data: eight objects
// both threads read and nobody writes, and one private object per
// thread that its transactions write.
type libtmSharedReads struct {
	s      *libtm.STM
	shared [8]*libtm.Obj
	own    [2]*libtm.Obj
}

func newLibTMSharedReads() *libtmSharedReads {
	r := &libtmSharedReads{s: libtm.New(libtm.Options{Mode: libtm.FullyOptimistic, YieldEvery: -1})}
	for i := range r.shared {
		r.shared[i] = libtm.NewObj(int64(i))
	}
	for i := range r.own {
		r.own[i] = libtm.NewObj(0)
	}
	return r
}

// step runs one transaction of thread th: read the eight shared
// objects, write their sum into th's own object.
func (r *libtmSharedReads) step(th uint16) {
	_ = r.s.Atomic(th, 0, func(tx *libtm.Tx) error {
		var sum int64
		for _, o := range r.shared {
			sum += tx.Read(o)
		}
		tx.Write(r.own[th], sum)
		return nil
	})
}

// BenchmarkLibTMSharedReads: two threads whose fully optimistic
// transactions read the same eight objects and write only private ones
// — SynQuake's shape in miniature (the quadtree and cell counters are
// read by every thread, written by few). No data conflict exists, so
// any cost that grows with the second thread is metadata traffic on
// the shared objects' cache lines.
func BenchmarkLibTMSharedReads(b *testing.B) {
	r := newLibTMSharedReads()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for th := 0; th < 2; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := th; i < b.N; i += 2 {
				r.step(uint16(th))
			}
		}(th)
	}
	wg.Wait()
}

// TestLibTMSharedReadsAllocFree pins BenchmarkLibTMSharedReads's
// transaction at zero allocations at steady state.
func TestLibTMSharedReadsAllocFree(t *testing.T) {
	skipIfRace(t)
	r := newLibTMSharedReads()
	if avg := allocsPerTx(func() { r.step(0) }); avg != 0 {
		t.Errorf("LibTM shared-read transaction allocates %.1f/op at steady state, want 0", avg)
	}
}

// scaleGateModel builds a synthetic TSA admitting the suite's worker
// pairs in forward and reverse order (the same shape the explorer's
// guided path uses), every transaction in conflict with every other, so
// the gate answers from a known model while the hold machinery stays
// reachable on out-of-model interleavings.
func scaleGateModel(workers int) *model.TSA {
	ps := make([]tts.Pair, workers)
	for i := range ps {
		ps[i] = tts.Pair{Tx: uint16(i), Thread: uint16(i)}
	}
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

// gateOptions enumerates the gate configurations the admission rows
// cover: the shipped default, whose health monitor counts every admit,
// and the monitor switched off, which isolates the gate proper.
var gateOptions = []struct {
	name string
	opts guide.Options
}{
	{"default", guide.Options{K: 1}},
	{"monitor-off", guide.Options{K: 1, HealthWindow: -1}},
}

// newGatedSTM returns a TL2 instance gated and traced by a controller
// over scaleGateModel(workers).
func newGatedSTM(workers int, opts guide.Options) *tl2.STM {
	ctrl := guide.New(scaleGateModel(workers), opts)
	s := tl2.New(tl2.Options{YieldEvery: -1})
	s.SetGate(ctrl)
	s.SetTracer(ctrl)
	return s
}

// BenchmarkScaleGateAdmission: the guide-gated commit path end to end
// — Admit consults the model snapshot, OnCommit advances the automaton
// through the per-pair snapshot cache — under disjoint RMW load. The
// tentpole pins this path at zero allocations per transaction.
func BenchmarkScaleGateAdmission(b *testing.B) {
	const workers = 8
	for _, g := range gateOptions {
		b.Run(g.name, func(b *testing.B) {
			s := newGatedSTM(workers, g.opts)
			vars := make([]*tl2.Var, workers)
			for i := range vars {
				vars[i] = tl2.NewVar(0)
			}
			var ids workerIDs
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := ids.get() % workers
				v := vars[id]
				for pb.Next() {
					_ = s.Atomic(id, id, func(tx *tl2.Tx) error {
						tx.Write(v, tx.Read(v)+1)
						return nil
					})
				}
			})
		})
	}
}

// gateTrackedModel: two threads run transactions 0–2, and after each of
// those six commits any of them may follow, or thread 1's transaction 3,
// the one state that admits thread 0's transaction 3 (after which the six
// follow). Every transaction is in conflict with every other, so (3,0) is
// held behind (3,1) and the gate tracks state; the six states share one
// verdict table, so nearly every commit among them changes the exact state
// and none changes the verdicts — SynQuake's shape, whose 20–24 guided
// states share 6–9 tables.
func gateTrackedModel() *model.TSA { return gateShapeModel().AssumeAllConflict() }

// gateShapeModel is gateTrackedModel's state graph without its conflicts:
// no state has an abort, so its compiled tables hold nobody (an idle gate).
func gateShapeModel() *model.TSA {
	m := model.New(2)
	st := func(tx, th uint16) tts.State { return tts.State{Commit: tts.Pair{Tx: tx, Thread: th}} }
	var six []tts.State
	for tx := uint16(0); tx < 3; tx++ {
		six = append(six, st(tx, 0), st(tx, 1))
	}
	for _, from := range six {
		for _, to := range append(six, st(3, 1)) {
			m.AddRun([]tts.State{from, to})
		}
		m.AddRun([]tts.State{st(3, 0), from})
	}
	m.AddRun([]tts.State{st(3, 1), st(3, 0)})
	return m
}

// gateTrackedBody is the fixed work between admission and commit.
func gateTrackedBody(seed int) int {
	for j := 0; j < 16; j++ {
		seed = seed*31 + j
	}
	return seed
}

// gateTrackedSink keeps gateTrackedBody's result alive.
var gateTrackedSink atomic.Int64

// BenchmarkGateTracked: the tracked gate's fixed cost per transaction —
// Admit and OnCommit around a fixed body, no STM — from two goroutines on
// gateTrackedModel, each cycling through its three transactions. The
// exact state changes on most commits; the verdict class never does.
func BenchmarkGateTracked(b *testing.B) {
	ctrl := guide.New(gateTrackedModel(), guide.Options{K: 1})
	if ctrl.Stats().Idle {
		b.Fatal("gateTrackedModel compiles to idle tables: the benchmark would time the idle path")
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for th := 0; th < 2; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			sum := 0
			for i := th; i < b.N; i += 2 {
				sum = gateTrackedStep(ctrl, i, sum)
			}
			gateTrackedSink.Add(int64(sum))
		}(th)
	}
	wg.Wait()
}

// gateTrackedStep runs transaction i of BenchmarkGateTracked: thread i%2,
// transaction (i/2)%3, instance i+1.
func gateTrackedStep(ctrl *guide.Controller, i, sum int) int {
	p := tts.Pair{Tx: uint16(i / 2 % 3), Thread: uint16(i % 2)}
	ctrl.Admit(p)
	sum = gateTrackedBody(sum)
	ctrl.OnCommit(uint64(i+1), p)
	return sum
}

// TestGateTrackedAllocFree pins BenchmarkGateTracked's path at zero
// allocations per transaction, and checks that it never holds.
func TestGateTrackedAllocFree(t *testing.T) {
	skipIfRace(t)
	ctrl := guide.New(gateTrackedModel(), guide.Options{K: 1})
	i := 0
	if avg := allocsPerTx(func() { gateTrackedStep(ctrl, i, 0); i++ }); avg != 0 {
		t.Errorf("tracked Admit+OnCommit allocates %.1f/op at steady state, want 0", avg)
	}
	if st := ctrl.Stats(); st.Idle || st.Holds != 0 || st.ImmediateAdmits != uint64(i) {
		t.Errorf("stats %+v after %d steps: want tracked tables and every admit immediate", st, i)
	}
}

// allocsPerTx measures steady-state allocations per call of fn after a
// short pool warm-up (the first transactions legitimately populate the
// sync.Pool free lists and lazily sized read/write sets).
func allocsPerTx(fn func()) float64 {
	for i := 0; i < 10; i++ {
		fn()
	}
	return testing.AllocsPerRun(200, fn)
}

// skipIfRace skips allocation pins under the race detector, whose
// instrumentation allocates on its own.
func skipIfRace(t *testing.T) {
	t.Helper()
	if race.Enabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
}

// TestScaleLibTMRMWAllocFree pins the pooled-descriptor claim on
// LibTM's general read-write path: zero allocations per transaction
// at steady state.
func TestScaleLibTMRMWAllocFree(t *testing.T) {
	skipIfRace(t)
	s := libtm.New(libtm.Options{Mode: libtm.FullyOptimistic, YieldEvery: -1})
	o := libtm.NewObj(0)
	if avg := allocsPerTx(func() {
		_ = s.Atomic(0, 0, func(tx *libtm.Tx) error {
			tx.Write(o, tx.Read(o)+1)
			return nil
		})
	}); avg != 0 {
		t.Errorf("LibTM RMW allocates %.1f/op at steady state, want 0", avg)
	}
}

// TestScaleTL2RMWAllocFree pins the same claim on TL2's read-write
// path.
func TestScaleTL2RMWAllocFree(t *testing.T) {
	skipIfRace(t)
	s := tl2.New(tl2.Options{YieldEvery: -1})
	v := tl2.NewVar(0)
	if avg := allocsPerTx(func() {
		_ = s.Atomic(0, 0, func(tx *tl2.Tx) error {
			tx.Write(v, tx.Read(v)+1)
			return nil
		})
	}); avg != 0 {
		t.Errorf("TL2 RMW allocates %.1f/op at steady state, want 0", avg)
	}
}

// TestScaleGateAdmissionAllocFree pins the guide-gated commit path:
// with the automaton cycling through its per-pair snapshot cache,
// Admit + OnCommit must add zero allocations to the transaction, with
// the health monitor on (the shipped default) or off.
func TestScaleGateAdmissionAllocFree(t *testing.T) {
	skipIfRace(t)
	for _, g := range gateOptions {
		t.Run(g.name, func(t *testing.T) {
			s := newGatedSTM(2, g.opts)
			v := tl2.NewVar(0)
			if avg := allocsPerTx(func() {
				_ = s.Atomic(0, 0, func(tx *tl2.Tx) error {
					tx.Write(v, tx.Read(v)+1)
					return nil
				})
			}); avg != 0 {
				t.Errorf("gate-admitted RMW allocates %.1f/op at steady state, want 0", avg)
			}
		})
	}
}

// BenchmarkParallelDriver: one transaction's fixed cost through a real
// runtime and the shared driver, from two goroutines on two Ps, each with
// a thread ID and a location of its own. No data is shared, so what the
// two threads still contend on is the runtime's and the driver's own
// words: the cost BenchmarkGateTracked, with no STM, cannot see. Gates:
// none, an idle one (gateShapeModel: tables that hold nobody) and
// BenchmarkGateTracked's tracked one, each installed as tracer too.
func BenchmarkParallelDriver(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, rt := range []string{"tl2", "libtm"} {
		for _, gate := range []string{"nogate", "idle", "tracked"} {
			b.Run(rt+"/"+gate, func(b *testing.B) {
				step := parallelDriverStep(b, rt, gate)
				var ids atomic.Uint32
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					th := uint16(ids.Add(1) - 1)
					for i := 0; pb.Next(); i++ {
						step(th, i)
					}
				})
			})
		}
	}
}

// parallelDriverStep builds BenchmarkParallelDriver's runtime and gate
// and returns its transaction: thread th's ith, transaction ID i%3, an
// increment of th's own location (see parallelDriverLoc).
func parallelDriverStep(tb testing.TB, rt, gate string) func(th uint16, i int) {
	var ctrl *guide.Controller
	switch gate {
	case "idle":
		ctrl = guide.New(gateShapeModel(), guide.Options{K: 1})
	case "tracked":
		ctrl = guide.New(gateTrackedModel(), guide.Options{K: 1})
	}
	if ctrl != nil && ctrl.Stats().Idle != (gate == "idle") {
		tb.Fatalf("%s gate compiled to idle=%v", gate, ctrl.Stats().Idle)
	}
	switch rt {
	case "tl2":
		s := tl2.New(tl2.Options{YieldEvery: -1})
		if ctrl != nil {
			s.SetGate(ctrl)
			s.SetTracer(ctrl)
		}
		var vars [parallelDriverLocs]*tl2.Var
		for j := range vars {
			vars[j] = tl2.NewVar(0)
		}
		return func(th uint16, i int) {
			v := vars[parallelDriverLoc(th)]
			_ = s.Atomic(th, uint16(i%3), func(tx *tl2.Tx) error {
				tx.Write(v, tx.Read(v)+1)
				return nil
			})
		}
	default:
		s := libtm.New(libtm.Options{Mode: libtm.FullyOptimistic, YieldEvery: -1})
		if ctrl != nil {
			s.SetGate(ctrl)
			s.SetTracer(ctrl)
		}
		var objs [parallelDriverLocs]*libtm.Obj
		for j := range objs {
			objs[j] = libtm.NewObj(0)
		}
		return func(th uint16, i int) {
			o := objs[parallelDriverLoc(th)]
			_ = s.Atomic(th, uint16(i%3), func(tx *libtm.Tx) error {
				tx.Write(o, tx.Read(o)+1)
				return nil
			})
		}
	}
}

// parallelDriverLocs locations are allocated back to back (24–48 bytes
// each), and thread th uses parallelDriverLoc(th): eight apart, so the
// two threads' locations share no cache line.
const parallelDriverLocs = 9

func parallelDriverLoc(th uint16) int { return 8 * int(th%2) }

// TestParallelDriverAllocFree pins every BenchmarkParallelDriver case at
// zero allocations per transaction, alternating its two thread IDs.
func TestParallelDriverAllocFree(t *testing.T) {
	skipIfRace(t)
	for _, rt := range []string{"tl2", "libtm"} {
		for _, gate := range []string{"nogate", "idle", "tracked"} {
			step, i := parallelDriverStep(t, rt, gate), 0
			if avg := allocsPerTx(func() { step(uint16(i%2), i); i++ }); avg != 0 {
				t.Errorf("%s/%s: %.1f allocs per transaction at steady state, want 0", rt, gate, avg)
			}
		}
	}
}
