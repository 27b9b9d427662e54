package online

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gstm/internal/fault"
	"gstm/internal/guide"
	"gstm/internal/model"
	"gstm/internal/race"
	"gstm/internal/trace"
	"gstm/internal/tts"
)

// feeder drives a learner with synthetic commit streams. ordered emits
// a skewed rotation over nPairs pairs: from pair i, 85% of commits go
// to pair i+1 and the rest to a random other — a workload with real
// bias for the analyzer to certify. chaos emits uniform random pairs —
// near-uniform transitions no model can exploit.
type feeder struct {
	l    *Learner
	rng  *rand.Rand
	inst uint64
	cur  int
	// victim, when not 0, makes one ordered commit in eight, drawn at
	// random, abort the pair that many places on.
	victim int
}

func (f *feeder) pair(i int) tts.Pair {
	return tts.Pair{Tx: uint16(i), Thread: uint16(i)}
}

func (f *feeder) ordered(nPairs, events int) {
	for e := 0; e < events; e++ {
		next := (f.cur + 1) % nPairs
		if f.rng.Intn(100) >= 85 {
			next = f.rng.Intn(nPairs)
		}
		f.cur = next
		f.inst++
		f.l.OnCommit(f.inst, f.pair(next))
		if f.victim != 0 && f.rng.Intn(8) == 0 {
			f.l.OnAbort(f.pair((next+f.victim)%nPairs), f.inst)
		}
	}
}

func (f *feeder) chaos(nPairs, events int) {
	for e := 0; e < events; e++ {
		f.cur = f.rng.Intn(nPairs)
		f.inst++
		f.l.OnCommit(f.inst, f.pair(f.cur))
	}
}

func newColdGate() *guide.Controller {
	return guide.New(nil, guide.Options{HealthWindow: -1})
}

const testEpoch = 256

func newSyncLearner(ctrl *guide.Controller, inj *fault.Injector) *Learner {
	return New(ctrl, Options{
		EpochEvents: testEpoch,
		Synchronous: true,
		Inject:      inj,
	})
}

// TestColdStartLearnsAndSwaps pins the basic loop: a gate built with no
// model at all starts wide open, and after a few epochs of a biased
// stream the learner installs a snapshot that actually guides.
func TestColdStartLearnsAndSwaps(t *testing.T) {
	ctrl := newColdGate()
	l := newSyncLearner(ctrl, nil)
	if m := ctrl.Model(); m != nil {
		t.Fatal("cold gate should have no model")
	}
	f := &feeder{l: l, rng: rand.New(rand.NewSource(1))}
	f.ordered(8, 4*testEpoch)

	st := l.Stats()
	if st.Epochs < 3 {
		t.Fatalf("Epochs = %d, want ≥ 3", st.Epochs)
	}
	if st.Swaps == 0 {
		t.Fatalf("no model swapped in: %+v", st)
	}
	m := ctrl.Model()
	if m == nil || m.NumStates() < 8 {
		t.Fatalf("installed model has %v states, want ≥ 8", m.NumStates())
	}
	if gs := ctrl.Stats(); gs.ModelSwaps != st.Swaps {
		t.Errorf("gate saw %d swaps, learner made %d", gs.ModelSwaps, st.Swaps)
	}
	if st.Quarantined || ctrl.Level() != guide.LevelGuided {
		t.Errorf("healthy stream quarantined the gate: %+v level=%v", st, ctrl.Level())
	}
	if st.Dropped != 0 {
		t.Errorf("synchronous feed dropped %d events", st.Dropped)
	}
}

// TestSwapPathOnIdleGate: a stream in which nobody aborts gives snapshots
// whose tables hold nobody, so the gate they are swapped into goes idle —
// and keeps counting; once the same rotation starts aborting, the next
// snapshots carry the evidence and the gate tracks state again.
func TestSwapPathOnIdleGate(t *testing.T) {
	ctrl := newColdGate()
	l := newSyncLearner(ctrl, nil)
	if ctrl.Stats().Idle {
		t.Fatal("a gate without a model is idle: there is nothing to read idleness off")
	}
	f := &feeder{l: l, rng: rand.New(rand.NewSource(1))}
	f.ordered(8, 4*testEpoch)
	if gs := ctrl.Stats(); !gs.Idle || gs.ModelSwaps == 0 {
		t.Fatalf("after an abort-free stream: idle=%v swaps=%d, want an idle gate", gs.Idle, gs.ModelSwaps)
	}
	for i := 0; i < 100; i++ {
		ctrl.Admit(f.pair(i % 8))
		ctrl.OnCommit(uint64(1<<40+i), f.pair(i%8))
	}
	if gs := ctrl.Stats(); gs.Admits != 100 || gs.ImmediateAdmits != 100 || gs.UnknownPasses != 0 {
		t.Errorf("idle gate's ledger: %+v", gs)
	}

	// The same rotation, one commit in eight now aborting the pair four
	// places on. The commit-only states stay the likely ones, so a
	// casualty's wait ends behind the next committer: some verdicts hold
	// and the gate tracks state.
	f.victim = 4
	f.ordered(8, 16*testEpoch)
	gs := ctrl.Stats()
	if gs.Idle || gs.Quarantined {
		t.Fatalf("after a stream with aborts: idle=%v quarantined=%v, want a gate that tracks state", gs.Idle, gs.Quarantined)
	}
	// Under {<e4>, a0} the model expects b1 next, and f5 is b1's casualty.
	ctrl.OnCommit(1<<41, f.pair(0))
	ctrl.OnAbort(f.pair(4), 1<<41)
	if ok, unknown := ctrl.WouldAdmit(f.pair(1)); !ok || unknown {
		t.Errorf("the predicted committer: ok=%v unknown=%v, want admitted under a known state", ok, unknown)
	}
	ctrl.Admit(f.pair(5))
	if now := ctrl.Stats(); now.Holds+now.FutileAdmits != gs.Holds+gs.FutileAdmits+1 {
		t.Errorf("the predicted casualty was neither held nor released as futile: %+v", now)
	}
}

// TestDriftQuarantinesThenRecovers is the drift-guard round trip: an
// installed model meets a workload shift into unguidable chaos — the
// gate must degrade to passthrough within the epoch — and when the
// workload becomes learnable again a healthy snapshot swaps in and
// re-arms full guidance.
func TestDriftQuarantinesThenRecovers(t *testing.T) {
	ctrl := newColdGate()
	l := newSyncLearner(ctrl, nil)
	f := &feeder{l: l, rng: rand.New(rand.NewSource(2))}

	f.ordered(8, 4*testEpoch)
	if st := l.Stats(); st.Swaps == 0 {
		t.Fatalf("phase 1 installed nothing: %+v", st)
	}

	// Shift: uniform random transitions. The installed model's
	// predictions stop landing (drift) and no fit snapshot can be
	// built from the chaos (staleness) — either guard alone must park
	// the gate at passthrough.
	f.chaos(8, 3*testEpoch)
	st := l.Stats()
	if !st.Quarantined || st.Quarantines == 0 {
		t.Fatalf("chaos did not quarantine: %+v", st)
	}
	if ctrl.Level() != guide.LevelPassthrough {
		t.Fatalf("gate level = %v during quarantine, want passthrough", ctrl.Level())
	}
	if st.LastDivergence < DefaultDriftTrip {
		t.Errorf("LastDivergence = %v, want ≥ %v on a full shift", st.LastDivergence, DefaultDriftTrip)
	}

	// Recovery: the workload settles into a (new) biased regime. The
	// decayed accumulator relearns, a fit snapshot swaps in, and the
	// learner re-arms the gate it had quarantined.
	swapsBefore := st.Swaps
	f.ordered(8, 8*testEpoch)
	st = l.Stats()
	if st.Quarantined || st.Rearms == 0 {
		t.Fatalf("did not recover from quarantine: %+v", st)
	}
	if st.Swaps <= swapsBefore {
		t.Fatalf("no post-shift snapshot installed: %+v", st)
	}
	if ctrl.Level() != guide.LevelGuided {
		t.Errorf("gate level = %v after recovery, want guided", ctrl.Level())
	}
}

// TestAbortAttribution pins the epoch fold's abort handling: aborts
// whose killer committed in the same batch extend that state's tuple;
// killers outside the batch are counted, not guessed.
func TestAbortAttribution(t *testing.T) {
	ctrl := newColdGate()
	l := New(ctrl, Options{EpochEvents: 4, Synchronous: true, StaleEpochs: 1 << 30})
	l.OnCommit(1, tts.Pair{Tx: 0, Thread: 0})
	l.OnAbort(tts.Pair{Tx: 1, Thread: 1}, 1)  // attaches to instance 1
	l.OnAbort(tts.Pair{Tx: 2, Thread: 2}, 99) // killer never committed here
	l.OnCommit(2, tts.Pair{Tx: 3, Thread: 3}) // 4th event triggers the epoch
	st := l.Stats()
	if st.Epochs != 1 {
		t.Fatalf("Epochs = %d, want 1", st.Epochs)
	}
	if st.Unattributed != 1 {
		t.Errorf("Unattributed = %d, want 1", st.Unattributed)
	}
	if st.AccStates != 2 {
		t.Errorf("AccStates = %d, want 2 (one per commit)", st.AccStates)
	}
	// Self-aborts (killer 0) carry no signal and must not even enqueue.
	l.OnAbort(tts.Pair{Tx: 5, Thread: 5}, 0)
	if got := l.Stats().Events; got != st.Events {
		t.Errorf("killer-0 abort was enqueued (events %d → %d)", st.Events, got)
	}
}

// TestStreamFaultsAreCountedNotFatal injects drop and duplicate faults
// into the event stream: the learner must account for them and keep
// processing epochs; guidance quality may suffer, liveness may not.
func TestStreamFaultsAreCountedNotFatal(t *testing.T) {
	inj := fault.NewInjector(7).
		Set(fault.StreamDrop, fault.Rule{Every: 10}).
		Set(fault.StreamDup, fault.Rule{Every: 17})
	ctrl := newColdGate()
	l := newSyncLearner(ctrl, inj)
	f := &feeder{l: l, rng: rand.New(rand.NewSource(3))}
	f.ordered(8, 4*testEpoch)
	st := l.Stats()
	if st.Dropped == 0 || st.Dups == 0 {
		t.Fatalf("faults did not register: %+v", st)
	}
	if st.Epochs == 0 {
		t.Fatal("no epochs processed under stream faults")
	}
	if st.Events+st.Dropped < 4*testEpoch {
		t.Errorf("event accounting lost events: %+v", st)
	}
}

// TestSnapshotAbortDegradesToPassthrough injects a permanent
// snapshot-build failure: the learner can never install anything, so
// after StaleEpochs epochs it must park the gate at passthrough — and
// the commit path keeps running the whole time.
func TestSnapshotAbortDegradesToPassthrough(t *testing.T) {
	inj := fault.NewInjector(11).Set(fault.SnapshotAbort, fault.Rule{Every: 1})
	ctrl := newColdGate()
	l := newSyncLearner(ctrl, inj)
	f := &feeder{l: l, rng: rand.New(rand.NewSource(4))}
	f.ordered(8, 4*testEpoch)
	st := l.Stats()
	if st.SnapshotAborts == 0 || st.Swaps != 0 {
		t.Fatalf("snapshot aborts did not take effect: %+v", st)
	}
	if !st.Quarantined || ctrl.Level() != guide.LevelPassthrough {
		t.Fatalf("gate not parked at passthrough: %+v level=%v", st, ctrl.Level())
	}
	// The gate still answers instantly at passthrough.
	for i := 0; i < 64; i++ {
		ctrl.Admit(tts.Pair{Tx: uint16(i % 8), Thread: uint16(i % 8)})
	}
	gs := ctrl.Stats()
	if gs.Admits != gs.ImmediateAdmits+gs.Holds+gs.ReadOnlyAdmits {
		t.Errorf("admit partition broken under faults: %+v", gs)
	}
}

// TestBackgroundLearnerConcurrent exercises the asynchronous path with
// racing producers (the -race soak in check.sh runs this too): events
// stream from several goroutines while the learner swaps models in the
// background, and shutdown flushes cleanly.
func TestBackgroundLearnerConcurrent(t *testing.T) {
	ctrl := newColdGate()
	l := New(ctrl, Options{EpochEvents: 128})
	l.Start()
	l.Start() // idempotent

	const producers = 4
	const perProducer = 2048
	var inst atomic.Uint64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + p)))
			cur := 0
			for i := 0; i < perProducer; i++ {
				next := (cur + 1) % 8
				if rng.Intn(100) >= 85 {
					next = rng.Intn(8)
				}
				cur = next
				l.OnCommit(inst.Add(1), tts.Pair{Tx: uint16(next), Thread: uint16(p)})
				if rng.Intn(50) == 0 {
					l.OnAbort(tts.Pair{Tx: uint16(rng.Intn(8)), Thread: uint16(p)}, inst.Load())
				}
			}
		}(p)
	}
	wg.Wait()
	l.Close()

	st := l.Stats()
	if st.Epochs == 0 {
		t.Fatalf("background learner processed no epochs: %+v", st)
	}
	if st.Events == 0 || st.Events+st.Dropped < producers*perProducer {
		t.Errorf("event accounting inconsistent: %+v", st)
	}
	if gs := ctrl.Stats(); gs.ModelSwaps != st.Swaps {
		t.Errorf("gate swaps %d != learner swaps %d", gs.ModelSwaps, st.Swaps)
	}
}

// TestHotPathAllocationFree pins the tracer hooks at zero allocations
// per event — the whole point of the ring design. Skipped under the
// race detector, which instruments allocations.
func TestHotPathAllocationFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	ctrl := newColdGate()
	// Asynchronous mode with no Start: epochs never run, so the ring
	// fills and the path degrades to the (also allocation-free) drop
	// branch — both branches are measured.
	l := New(ctrl, Options{})
	inst := uint64(0)
	p := tts.Pair{Tx: 1, Thread: 1}
	if avg := testing.AllocsPerRun(5000, func() {
		inst++
		l.OnCommit(inst, p)
		l.OnAbort(p, inst)
	}); avg != 0 {
		t.Fatalf("tracer hot path allocates %v allocs/op, want 0", avg)
	}
}

// recordedStream is one fixed stream of 3,200 commit+abort pairs over
// two threads: a biased rotation over eight pairs, then uniform chaos,
// then the rotation again, so a replay goes through swaps, a
// quarantine and a re-arm. Each commit kills the pair four places on,
// and one in eight also the pair two on. One abort in four is recorded
// before its killer's commit, so some straddle an epoch boundary and go
// unattributed.
func recordedStream() []trace.Event {
	const nPairs, steps = 8, 3200
	rng := rand.New(rand.NewSource(43))
	pair := func(i int) tts.Pair { return tts.Pair{Tx: uint16(i), Thread: uint16(i % 2)} }
	evs := make([]trace.Event, 0, 2*steps)
	cur := 0
	for inst := uint64(1); inst <= steps; inst++ {
		next := (cur + 1) % nPairs
		if chaos := inst > 1200 && inst <= 2000; chaos || rng.Intn(100) >= 85 {
			next = rng.Intn(nPairs)
		}
		cur = next
		c := trace.Event{Inst: inst, Pair: pair(next), Kind: trace.EventCommit}
		a := trace.Event{Inst: inst, Pair: pair((next + 4) % nPairs), Kind: trace.EventAbort}
		if rng.Intn(4) == 0 {
			c, a = a, c
		}
		evs = append(evs, c, a)
		if rng.Intn(8) == 0 {
			evs = append(evs, trace.Event{Inst: inst, Pair: pair((next + 2) % nPairs), Kind: trace.EventAbort})
		}
	}
	return evs
}

// feed delivers ev through a tracer's hooks.
func feed(tr trace.Tracer, ev trace.Event) {
	if ev.Kind == trace.EventCommit {
		tr.OnCommit(ev.Inst, ev.Pair)
	} else {
		tr.OnAbort(ev.Pair, ev.Inst)
	}
}

// replayOutcome is everything a replay decides: the learner's guard
// counters and the model it left installed (node key → edge counts).
type replayOutcome struct {
	Epochs, Swaps, Quarantines, Rearms, StaleSkips, Unattributed uint64
	LastDivergence                                               float64
	AccStates                                                    int
	Installed                                                    map[string]map[string]int
}

// replay feeds evs to a fresh learner with 256-event epochs and closes
// it. seed < 0 replays in Synchronous mode; otherwise the learner runs
// on its own goroutine while one producer, paced by seed, sleeps at
// random between events. The producer waits while half the ring is
// unfolded, so no event is dropped and every run sees the same input.
func replay(t *testing.T, evs []trace.Event, seed int64) replayOutcome {
	t.Helper()
	ctrl := newColdGate()
	l := New(ctrl, Options{EpochEvents: testEpoch, Synchronous: seed < 0})
	if seed < 0 {
		for _, ev := range evs {
			feed(l, ev)
		}
	} else {
		l.Start()
		rng := rand.New(rand.NewSource(seed))
		for _, ev := range evs {
			for {
				st := l.Stats()
				if st.Events+st.Dups-st.Epochs*testEpoch < minRing/2 {
					break
				}
				runtime.Gosched()
			}
			if rng.Intn(64) == 0 {
				time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
			}
			feed(l, ev)
		}
	}
	l.Close()
	st := l.Stats()
	if st.Dropped != 0 || st.Events != uint64(len(evs)) {
		t.Fatalf("seed %d: accepted %d of %d events, dropped %d", seed, st.Events, len(evs), st.Dropped)
	}
	out := replayOutcome{
		Epochs: st.Epochs, Swaps: st.Swaps, Quarantines: st.Quarantines, Rearms: st.Rearms,
		StaleSkips: st.StaleSkips, Unattributed: st.Unattributed,
		LastDivergence: st.LastDivergence, AccStates: st.AccStates,
		Installed: map[string]map[string]int{},
	}
	if m := ctrl.Model(); m != nil {
		for key, node := range m.Nodes {
			out.Installed[key] = node.Out
		}
	}
	return out
}

// TestDeterministicEpochs is the learner's determinism contract: epochs
// are cut by ring position, so one accepted stream gives the same
// epochs, the same guard decisions and the same installed model whether
// the learner folds inline or on its own goroutine, however that
// goroutine is scheduled.
func TestDeterministicEpochs(t *testing.T) {
	evs := recordedStream()
	want := replay(t, evs, -1)
	if n := uint64(len(evs)+testEpoch-1) / testEpoch; want.Epochs != n {
		t.Errorf("Synchronous: %d epochs, want %d (complete ones plus Close's short one)", want.Epochs, n)
	}
	if want.Swaps == 0 || want.Quarantines == 0 || want.Rearms == 0 || want.Unattributed == 0 || len(want.Installed) == 0 {
		t.Fatalf("the stream does not exercise the guards: %+v", want)
	}
	for seed := int64(1); seed <= 4; seed++ {
		if got := replay(t, evs, seed); !reflect.DeepEqual(got, want) {
			t.Errorf("async seed %d differs from Synchronous:\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// TestFoldEqualsOfflineBuild: the learner's fold of a stream as one
// epoch, into an empty accumulator with no eviction, is exactly the
// offline model built from a Collector's sequence of the same events.
func TestFoldEqualsOfflineBuild(t *testing.T) {
	evs := recordedStream()
	col := trace.NewCollector()
	// No epoch completes before Close, and Close's short epoch is too
	// small to decide, so nothing decays the accumulator after the fold.
	l := New(newColdGate(), Options{
		EpochEvents: 4*len(evs) + minEpochFraction,
		StateBudget: len(evs),
		Synchronous: true,
	})
	for _, ev := range evs {
		feed(l, ev)
		feed(col, ev)
	}
	l.Close()
	seq, unattr := col.Sequence()
	if st := l.Stats(); st.Epochs != 1 || st.Dropped != 0 || st.Unattributed != uint64(unattr) {
		t.Fatalf("learner: %+v; collector: %d unattributed", st, unattr)
	}
	want := model.Build(l.acc.Threads, seq)
	if len(want.Nodes) == 0 || !reflect.DeepEqual(l.acc.Nodes, want.Nodes) {
		t.Errorf("fold differs from model.Build:\nfold  %s\nbuild %s", l.acc.Dump(0), want.Dump(0))
	}
}
