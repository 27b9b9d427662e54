package harness

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gstm/internal/fault"
	"gstm/internal/guide"
	"gstm/internal/libtm"
	"gstm/internal/model"
	"gstm/internal/online"
	"gstm/internal/overload"
	"gstm/internal/stamp"
	"gstm/internal/tl2"
	"gstm/internal/trace"
	"gstm/internal/tts"
)

// TestFaultMatrix runs the full profile→model→guided pipeline under
// each injectable fault class and asserts the system degrades
// gracefully: corrupt persistence is rejected descriptively, timing
// faults never deadlock the gate, trace faults never crash model
// building, and a model that does not match reality trips the health
// ladder to passthrough instead of throttling the run forever.
func TestFaultMatrix(t *testing.T) {
	t.Run("CommitAborts", func(t *testing.T) {
		e := fastExperiment("kmeans", 4)
		e.Inject = fault.NewInjector(42).
			Set(fault.CommitAbort, fault.Rule{Every: 7})
		out, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if e.Inject.Fired(fault.CommitAbort) == 0 {
			t.Error("no commit aborts injected")
		}
		if out.Default.Commits == 0 {
			t.Error("forced aborts prevented all commits")
		}
	})

	t.Run("CommitAndLockDelays", func(t *testing.T) {
		e := fastExperiment("vacation", 3)
		e.ProfileRuns, e.MeasureRuns = 2, 2
		e.Inject = fault.NewInjector(7).
			Set(fault.CommitDelay, fault.Rule{Every: 11, Delay: 200 * time.Microsecond}).
			Set(fault.LockReleaseDelay, fault.Rule{Every: 13, Delay: 200 * time.Microsecond})
		res, err := e.Measure(nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Commits == 0 {
			t.Error("delays prevented all commits")
		}
		if e.Inject.Fired(fault.CommitDelay) == 0 || e.Inject.Fired(fault.LockReleaseDelay) == 0 {
			t.Errorf("delays did not fire: %s", e.Inject.Counts())
		}
	})

	t.Run("HoldStalls", func(t *testing.T) {
		e := fastExperiment("kmeans", 4)
		e.ProfileRuns, e.MeasureRuns = 2, 2
		e.K = 2
		e.Force = true
		e.Inject = fault.NewInjector(99).
			Set(fault.HoldStall, fault.Rule{Every: 3, Delay: 100 * time.Microsecond})
		out, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if out.Compared == nil {
			t.Fatal("guided measurement did not run")
		}
		if out.Guided.Commits == 0 {
			t.Error("stalled gate prevented all commits")
		}
		gs := out.Guided.Guide
		if gs.Admits != gs.ImmediateAdmits+gs.Holds {
			t.Errorf("stats inconsistent under stalls: admits=%d immediate=%d holds=%d",
				gs.Admits, gs.ImmediateAdmits, gs.Holds)
		}
	})

	t.Run("TraceDropAndDup", func(t *testing.T) {
		// Dropped and duplicated trace events must never crash model
		// building, and the resulting model must still drive a guided
		// run to completion.
		inj := fault.NewInjector(5).
			Set(fault.TraceDrop, fault.Rule{Every: 9}).
			Set(fault.TraceDup, fault.Rule{Every: 14})
		m := model.New(4)
		for run := 0; run < 3; run++ {
			s := tl2.New(tl2.Options{})
			col := trace.NewCollector()
			cfg := stamp.Config{Threads: 4, Size: stamp.Small, Seed: int64(run)}
			if _, err := stamp.Run(s, NewWorkloadT(t, "kmeans"), cfg, func() {
				s.SetTracer(fault.Tracer(col, inj))
			}); err != nil {
				t.Fatalf("profile run under trace faults: %v", err)
			}
			seq, _ := col.Sequence()
			m.AddRun(seq)
		}
		if inj.Fired(fault.TraceDrop) == 0 || inj.Fired(fault.TraceDup) == 0 {
			t.Errorf("trace faults did not fire: %s", inj.Counts())
		}
		e := fastExperiment("kmeans", 4)
		e.MeasureRuns = 2
		ctrl := guide.New(m.Prune(4), guide.Options{Tfactor: 4, K: 1})
		res, err := e.Measure(ctrl)
		if err != nil {
			t.Fatalf("guided run on fault-built model: %v", err)
		}
		if res.Commits == 0 {
			t.Error("no commits under fault-built model")
		}
	})

	t.Run("CorruptModelFile", func(t *testing.T) {
		e := fastExperiment("kmeans", 4)
		e.ProfileRuns = 2
		m, err := e.Profile()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "state_data")
		for name, data := range map[string][]byte{
			"bit-flipped": fault.Corrupt(buf.Bytes(), 1),
			"truncated":   fault.Truncate(buf.Bytes(), 1),
		} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			_, derr := model.Decode(f)
			f.Close()
			if derr == nil {
				t.Errorf("%s model accepted", name)
			} else if !strings.Contains(derr.Error(), "model:") {
				t.Errorf("%s model error lacks context: %v", name, derr)
			}
		}
	})

	t.Run("CorruptSequenceFile", func(t *testing.T) {
		seq := []tts.State{
			{Commit: tts.Pair{Tx: 0, Thread: 0}},
			{Commit: tts.Pair{Tx: 1, Thread: 1}, Aborts: []tts.Pair{{Tx: 0, Thread: 2}}},
		}
		var buf bytes.Buffer
		if err := trace.WriteSequence(&buf, seq); err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string][]byte{
			"bit-flipped": fault.Corrupt(buf.Bytes(), 3),
			"truncated":   fault.Truncate(buf.Bytes(), 3),
		} {
			if _, err := trace.ReadSequence(bytes.NewReader(data)); err == nil {
				t.Errorf("%s sequence accepted", name)
			}
		}
	})

	t.Run("CommitAbortStormTerminates", func(t *testing.T) {
		// Force-abort every commit. With escalation armed, every Atomic
		// call must still terminate — rescued by the irrevocable serial
		// path — so the measured run completes with commits and a
		// nonzero escalation count instead of hanging.
		e := fastExperiment("kmeans", 4)
		e.MeasureRuns = 1
		e.Inject = fault.NewInjector(11).
			Set(fault.CommitAbort, fault.Rule{Every: 1})
		e.TxDeadline = time.Minute
		e.EscalateAfter = 3
		res, err := e.Measure(nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Commits == 0 {
			t.Error("storm prevented all commits despite escalation")
		}
		if res.Progress.Escalations == 0 {
			t.Error("no escalations recorded under a total commit-abort storm")
		}
		if res.Progress.DeadlineExceeded != 0 {
			t.Errorf("DeadlineExceeded = %d, want 0 (escalation should beat the deadline)",
				res.Progress.DeadlineExceeded)
		}
	})

	t.Run("CommitAbortStormHitsDeadline", func(t *testing.T) {
		// The other half of the progress guarantee: with escalation and
		// the watchdog disabled, the same storm must end every call with
		// ErrDeadline — bounded failure, not a hang.
		e := fastExperiment("kmeans", 4)
		e.MeasureRuns = 1
		e.Inject = fault.NewInjector(11).
			Set(fault.CommitAbort, fault.Rule{Every: 1})
		e.TxDeadline = 50 * time.Millisecond
		e.EscalateAfter = -1
		e.WatchdogWindow = -1
		_, err := e.Measure(nil)
		if err == nil {
			t.Fatal("measure succeeded under a total storm with escalation disabled")
		}
		if !errors.Is(err, tl2.ErrDeadline) {
			t.Fatalf("err = %v, want tl2.ErrDeadline", err)
		}
	})

	t.Run("GuidedEscalation", func(t *testing.T) {
		// Escalation under guided execution: the controller must admit
		// irrevocable transactions immediately (no hold, no stall) and
		// count them, and the run must complete. The profile phase runs
		// fault-free; the storm is armed for the measured phase only.
		e := fastExperiment("kmeans", 4)
		e.ProfileRuns, e.MeasureRuns = 2, 1
		m, err := e.Profile()
		if err != nil {
			t.Fatal(err)
		}
		e.Inject = fault.NewInjector(23).
			Set(fault.CommitAbort, fault.Rule{PerMille: 600})
		e.TxDeadline = time.Minute
		e.EscalateAfter = 2
		ctrl := guide.New(m.Prune(4), guide.Options{Tfactor: 4, K: 1, Inject: e.Inject})
		res, err := e.Measure(ctrl)
		if err != nil {
			t.Fatal(err)
		}
		if res.Commits == 0 {
			t.Error("no commits under guided escalation")
		}
		gs := res.Guide
		if gs.IrrevocableAdmits == 0 {
			t.Errorf("no irrevocable admits recorded (escalations=%d)", res.Progress.Escalations)
		}
		if gs.Admits != gs.ImmediateAdmits+gs.Holds {
			t.Errorf("gate stats inconsistent under escalation: admits=%d immediate=%d holds=%d",
				gs.Admits, gs.ImmediateAdmits, gs.Holds)
		}
	})

	t.Run("OnlineEpochSwapStall", func(t *testing.T) {
		// A wedged model swapper must stall only the learner goroutine:
		// the commit path keeps committing at full speed and the swaps
		// that do land arrive late, not never.
		e := fastExperiment("kmeans", 4)
		e.MeasureRuns = 2
		e.EpochEvents = 256
		e.Inject = fault.NewInjector(31).
			Set(fault.EpochSwapStall, fault.Rule{Every: 1, Delay: 2 * time.Millisecond})
		res, st, err := e.MeasureOnline()
		if err != nil {
			t.Fatal(err)
		}
		if res.Commits == 0 {
			t.Error("stalled swapper prevented commits")
		}
		if st.Epochs == 0 {
			t.Errorf("no epochs processed under swap stalls: %+v", st)
		}
		if st.Swaps > 0 && e.Inject.Fired(fault.EpochSwapStall) == 0 {
			t.Errorf("swaps landed without the stall firing: %s", e.Inject.Counts())
		}
		gs := res.Guide
		if gs.Admits != gs.ImmediateAdmits+gs.Holds {
			t.Errorf("admit partition broken under swap stalls: %+v", gs)
		}
	})

	t.Run("OnlineStreamDropDup", func(t *testing.T) {
		// Dropped and duplicated events in the learner's stream skew the
		// counts, never the commit path: epochs keep processing and the
		// faults are accounted, not fatal.
		e := fastExperiment("kmeans", 4)
		e.MeasureRuns = 2
		e.EpochEvents = 256
		e.Inject = fault.NewInjector(37).
			Set(fault.StreamDrop, fault.Rule{Every: 9}).
			Set(fault.StreamDup, fault.Rule{Every: 14})
		res, st, err := e.MeasureOnline()
		if err != nil {
			t.Fatal(err)
		}
		if res.Commits == 0 {
			t.Error("stream faults prevented commits")
		}
		if st.Dropped == 0 || st.Dups == 0 {
			t.Errorf("stream faults did not register: %+v (%s)", st, e.Inject.Counts())
		}
		if st.Epochs == 0 {
			t.Errorf("no epochs processed under stream faults: %+v", st)
		}
	})

	t.Run("OnlineSnapshotAbort", func(t *testing.T) {
		// Every snapshot build fails: the learner can never install a
		// model, so the staleness guard must park the gate at
		// passthrough — degraded, not wedged — while the run completes.
		// Quarantine takes one warm-up epoch and DefaultStaleEpochs stale
		// ones, and a fixed run count sometimes ends short of them. The
		// runs go on, under a deadline, until the learner has seen them.
		e := fastExperiment("kmeans", 4)
		e.MeasureRuns = 1
		e.EpochEvents = 256
		e.Inject = fault.NewInjector(41).
			Set(fault.SnapshotAbort, fault.Rule{Every: 1})
		e.fill()
		ctrl, l := e.onlineGate()
		l.Start()
		var res ModeResult
		for deadline := time.Now().Add(time.Minute); ; {
			r, err := e.measureWith(ctrl, l)
			if err != nil {
				l.Close()
				t.Fatal(err)
			}
			res.Commits += r.Commits
			// Wait until the learner has folded every complete epoch of
			// the accepted stream, so none lands after the next run resets
			// the gate.
			for {
				st := l.Stats()
				if st.Epochs == (st.Events+st.Dups)/uint64(e.EpochEvents) {
					break
				}
				if time.Now().After(deadline) {
					l.Close()
					t.Fatalf("epochs not folded within a minute: %+v", st)
				}
				runtime.Gosched()
			}
			if l.Stats().StaleSkips >= online.DefaultStaleEpochs {
				break
			}
			if time.Now().After(deadline) {
				l.Close()
				t.Fatalf("%d stale epochs not reached within a minute: %+v", online.DefaultStaleEpochs, l.Stats())
			}
		}
		l.Close()
		st := l.Stats()
		res.Guide = ctrl.Stats()
		if res.Commits == 0 {
			t.Error("snapshot aborts prevented commits")
		}
		if st.SnapshotAborts == 0 || st.Swaps != 0 {
			t.Errorf("snapshot aborts did not take effect: %+v", st)
		}
		if !st.Quarantined {
			t.Errorf("learner did not quarantine a gate it can never feed: %+v", st)
		}
		if res.Guide.Level != guide.LevelPassthrough {
			t.Errorf("gate level = %v, want passthrough", res.Guide.Level)
		}
	})

	t.Run("OnlineLearnerOnLibtm", func(t *testing.T) {
		// The learner is runtime-agnostic: wire it to the libtm runtime's
		// trace fan-out (with stream faults armed) and drive real
		// contention; the commit path must be unaffected and the learner
		// must still account for every event it was shown.
		inj := fault.NewInjector(43).
			Set(fault.StreamDrop, fault.Rule{Every: 11})
		ctrl := guide.New(nil, guide.Options{})
		l := online.New(ctrl, online.Options{EpochEvents: 128, Inject: inj})
		l.Start()
		s := libtm.New(libtm.Options{Mode: libtm.FullyOptimistic})
		s.SetTracer(l)
		s.SetGate(ctrl)
		o := libtm.NewObj(0)
		const workers, iters = 4, 300
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					_ = s.Atomic(uint16(w), uint16(w%2), func(tx *libtm.Tx) error {
						tx.Write(o, tx.Read(o)+1)
						return nil
					})
				}
			}(w)
		}
		wg.Wait()
		l.Close()
		st := l.Stats()
		if st.Events == 0 || st.Epochs == 0 {
			t.Errorf("learner saw nothing on libtm: %+v", st)
		}
		if st.Dropped == 0 {
			t.Errorf("stream-drop fault never fired on libtm: %s", inj.Counts())
		}
		var sum int64
		if err := s.Atomic(0, 0, func(tx *libtm.Tx) error {
			sum = tx.Read(o)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if sum != workers*iters {
			t.Errorf("commit path corrupted under online faults: sum = %d, want %d", sum, workers*iters)
		}
	})

	t.Run("MismatchedModelTripsPassthrough", func(t *testing.T) {
		// A model trained on states that never occur in the measured
		// workload makes every admit an unknown-state pass; the health
		// monitor must walk the ladder to passthrough rather than let
		// guidance thrash. RearmWindows is huge so the probe cannot
		// flap the level back down mid-assert.
		bogus := model.Build(4,
			[]tts.State{
				{Commit: tts.Pair{Tx: 1000, Thread: 0}},
				{Commit: tts.Pair{Tx: 1001, Thread: 1}},
				{Commit: tts.Pair{Tx: 1000, Thread: 0}},
			},
		).Prune(4).AssumeAllConflict()
		// (Without conflict evidence the tables would hold nobody, and an
		// idle gate follows no state at all, known or unknown.)
		e := fastExperiment("kmeans", 4)
		e.MeasureRuns = 2
		ctrl := guide.New(bogus, guide.Options{
			Tfactor:      4,
			K:            1,
			HealthWindow: 32,
			RearmWindows: 1 << 20,
		})
		res, err := e.Measure(ctrl)
		if err != nil {
			t.Fatal(err)
		}
		gs := res.Guide
		if gs.Level != guide.LevelPassthrough {
			t.Errorf("level = %v, want passthrough (unknowns=%d admits=%d)",
				gs.Level, gs.UnknownPasses, gs.Admits)
		}
		if gs.Degradations < 2 {
			t.Errorf("Degradations = %d, want >= 2 (guided→relaxed→passthrough)", gs.Degradations)
		}
		if gs.PassthroughAdmits == 0 {
			t.Error("no admits recorded at passthrough level")
		}
		if res.Commits == 0 {
			t.Error("mismatched model prevented all commits")
		}
	})

	// overloadHammer drives an increment loop on one runtime behind an
	// injector-armed limiter and returns (successes, sheds).
	overloadHammer := func(t *testing.T, atomic func(w, i int) error) (uint64, uint64) {
		t.Helper()
		const workers, iters = 4, 200
		var ok, shed atomic64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					switch err := atomic(w, i); {
					case err == nil:
						ok.Add(1)
					case errors.Is(err, overload.ErrShed):
						shed.Add(1)
					default:
						t.Errorf("worker %d call %d: %v", w, i, err)
					}
				}
			}(w)
		}
		wg.Wait()
		return ok.Load(), shed.Load()
	}
	// dwell extends each transaction body so tokens are held long enough
	// for the cap to saturate (zero = as fast as the runtime goes).
	eachRuntime := func(t *testing.T, maxInflight int, dwell time.Duration, inj func() *fault.Injector, check func(t *testing.T, runtime string, inj *fault.Injector, lim *overload.Limiter, ok, shed uint64, value int64)) {
		t.Helper()
		{
			in := inj()
			lim := overload.New(overload.Options{MaxInflight: maxInflight, Inject: in})
			s := tl2.New(tl2.Options{Overload: lim, YieldEvery: -1})
			v := tl2.NewVar(0)
			ok, shed := overloadHammer(t, func(w, i int) error {
				return s.Atomic(uint16(w), uint16(1+i%3), func(tx *tl2.Tx) error {
					if dwell > 0 {
						time.Sleep(dwell) //gstm:ignore gstm001 -- deliberate dwell: tokens must be held long enough to saturate the admission cap
					}
					tx.Write(v, tx.Read(v)+1)
					return nil
				})
			})
			check(t, "tl2", in, lim, ok, shed, v.Value())
		}
		{
			in := inj()
			lim := overload.New(overload.Options{MaxInflight: maxInflight, Inject: in})
			s := libtm.New(libtm.Options{Mode: libtm.FullyOptimistic, Overload: lim, YieldEvery: -1})
			o := libtm.NewObj(0)
			ok, shed := overloadHammer(t, func(w, i int) error {
				return s.Atomic(uint16(w), uint16(1+i%3), func(tx *libtm.Tx) error {
					if dwell > 0 {
						time.Sleep(dwell) //gstm:ignore gstm001 -- deliberate dwell: tokens must be held long enough to saturate the admission cap
					}
					tx.Write(o, tx.Read(o)+1)
					return nil
				})
			})
			check(t, "libtm", in, lim, ok, shed, o.Value())
		}
	}

	t.Run("OverloadLoadSpike", func(t *testing.T) {
		// A load spike forces the saturated admission path on an
		// otherwise idle limiter: spiked calls must park and then admit
		// normally — no sheds, no losses, the wait machinery visibly
		// exercised.
		eachRuntime(t, 8, 0,
			func() *fault.Injector {
				return fault.NewInjector(51).Set(fault.LoadSpike, fault.Rule{Every: 3})
			},
			func(t *testing.T, runtime string, inj *fault.Injector, lim *overload.Limiter, ok, shed uint64, value int64) {
				if inj.Fired(fault.LoadSpike) == 0 {
					t.Errorf("%s: load spikes never fired: %s", runtime, inj.Counts())
				}
				if shed != 0 || ok != 800 || value != 800 {
					t.Errorf("%s: spike lost work: ok=%d shed=%d value=%d", runtime, ok, shed, value)
				}
				if st := lim.Stats(); st.Waits == 0 {
					t.Errorf("%s: spiked calls never reached the wait loop: %+v", runtime, st)
				}
			})
	})

	t.Run("OverloadLimiterStall", func(t *testing.T) {
		// Stalls inside the wait loop delay admission but must never
		// deadlock or drop a call. A cap of 2 under 4 workers keeps the
		// wait loop genuinely occupied (a spike alone bounces off the
		// loop's first retry on an idle limiter).
		eachRuntime(t, 2, 20*time.Microsecond,
			func() *fault.Injector {
				return fault.NewInjector(53).
					Set(fault.LimiterStall, fault.Rule{Every: 2, Delay: 100 * time.Microsecond})
			},
			func(t *testing.T, runtime string, inj *fault.Injector, lim *overload.Limiter, ok, shed uint64, value int64) {
				if inj.Fired(fault.LimiterStall) == 0 {
					t.Errorf("%s: limiter stalls never fired: %s", runtime, inj.Counts())
				}
				if shed != 0 || ok != 800 || value != 800 {
					t.Errorf("%s: stalls lost work: ok=%d shed=%d value=%d", runtime, ok, shed, value)
				}
			})
	})

	t.Run("OverloadShedStorm", func(t *testing.T) {
		// A probabilistic shed storm rejects a slice of calls before the
		// runtime: every rejection is ErrShed, accounted by the limiter,
		// and invisible to transactional state.
		eachRuntime(t, 8, 0,
			func() *fault.Injector {
				return fault.NewInjector(57).Set(fault.ShedStorm, fault.Rule{PerMille: 300})
			},
			func(t *testing.T, runtime string, inj *fault.Injector, lim *overload.Limiter, ok, shed uint64, value int64) {
				if shed == 0 {
					t.Fatalf("%s: a 30%% shed storm shed nothing: %s", runtime, inj.Counts())
				}
				if ok+shed != 800 {
					t.Errorf("%s: accounting hole: ok=%d shed=%d", runtime, ok, shed)
				}
				if value != int64(ok) {
					t.Errorf("%s: shed calls touched state: value=%d ok=%d", runtime, value, ok)
				}
				if st := lim.Stats(); st.ShedStorm != shed {
					t.Errorf("%s: limiter storm ledger %d, callers saw %d", runtime, st.ShedStorm, shed)
				}
			})
	})

	t.Run("OverloadShedStormBreaksMeasurement", func(t *testing.T) {
		// Through the full harness: a total storm sheds every call, the
		// workload cannot validate, and the failure surfaces wrapping
		// overload.ErrShed — cmd/gstm's shed exit code rides this.
		e := fastExperiment("kmeans", 4)
		e.MeasureRuns = 1
		inj := fault.NewInjector(61).Set(fault.ShedStorm, fault.Rule{Every: 1})
		e.Overload = overload.New(overload.Options{MaxInflight: 8, Inject: inj})
		_, err := e.Measure(nil)
		if err == nil {
			t.Fatal("measurement succeeded under a total shed storm")
		}
		if !errors.Is(err, overload.ErrShed) {
			t.Fatalf("err = %v, want wrapped overload.ErrShed", err)
		}
	})
}

// atomic64 aliases the stdlib counter so the hammer closure reads
// cleanly next to the sync import.
type atomic64 = atomic.Uint64

// NewWorkloadT is NewWorkload with test-fatal error handling.
func NewWorkloadT(t *testing.T, name string) stamp.Workload {
	t.Helper()
	w, err := NewWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}
