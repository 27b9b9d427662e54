// Package online implements continuously-learning guidance: a streaming
// controller that builds the Thread State Automaton incrementally from
// the live commit/abort stream instead of (or in addition to) an
// offline profiling phase.
//
// The Learner sits on the trace fan-out next to the guide controller
// (trace.Multi). Its tracer hooks are the hot path and do no work
// beyond one CAS that claims a position in a lock-free bounded ring —
// zero allocations, no locks, no blocking: when the ring is full the
// event is dropped and counted, never waited on, and claims no
// position. The claimed position is the event's place in the stream,
// and epoch i is positions [i·EpochEvents, (i+1)·EpochEvents). So a
// given stream of accepted events is cut into the same epochs however
// the learner goroutine is scheduled. Everything heavy happens per
// epoch, off the commit path: the learner groups the epoch's events
// into its transaction sequence (trace.Build, the same grouping the
// offline profile uses), folds the transition chain into a decayed,
// budget-bounded accumulator model (the paper's §VI pruning applied
// online), and builds a pruned snapshot that is installed into the
// guide with a single lock-free pointer swap (guide.Controller.SwapModel).
//
// Two guards keep a bad model from steering the gate:
//
//   - Drift: each epoch's observed transitions are scored against the
//     *installed* model (analyze.CoverageOf). When divergence crosses
//     DriftTrip the workload has moved away from what the installed
//     model predicts, and the learner quarantines the gate —
//     degradation to passthrough within the current epoch.
//   - Staleness/fitness: each epoch's snapshot is checked with
//     analyze.Analyze plus its own coverage of the epoch it was built
//     from. After StaleEpochs consecutive epochs that fail to produce
//     a healthy snapshot the learner quarantines too.
//
// A healthy snapshot always swaps in; if the learner had quarantined
// the gate, a healthy swap re-arms it (guide.Controller.Rearm) — the
// recovery path after a workload shift. All guard failures degrade,
// never wedge: the gate at passthrough admits everything, and the
// learner keeps watching the stream for the workload to become
// learnable again.
package online

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"gstm/internal/analyze"
	"gstm/internal/fault"
	"gstm/internal/guide"
	"gstm/internal/model"
	"gstm/internal/trace"
	"gstm/internal/tts"
)

// Defaults for Options; see the field docs.
const (
	DefaultEpochEvents = 512
	DefaultStateBudget = 4096
	DefaultDecay       = 0.75
	DefaultDriftTrip   = 0.6
	DefaultStaleEpochs = 2
	DefaultMinStates   = 2
)

// minRing is the event ring's smallest capacity. Past it the ring holds
// two epochs, so producers can fill one while the learner folds the
// other.
const minRing = 4096

// minEpochFraction: an epoch smaller than EpochEvents/minEpochFraction
// (Close's short final epoch) still folds into the accumulator but is
// too little evidence to drive guard decisions.
const minEpochFraction = 4

// Options configures a Learner. The zero value is usable: every field
// defaults as documented.
type Options struct {
	// EpochEvents is how many accepted events make one epoch: epoch i
	// is ring positions [i·EpochEvents, (i+1)·EpochEvents). ≤ 0 means
	// DefaultEpochEvents. Smaller epochs adapt faster and cost more
	// churn. The event ring holds the next power of two ≥
	// max(4096, 2·EpochEvents) events.
	EpochEvents int
	// StateBudget bounds the accumulator model's state count; the
	// lowest-weight states are evicted past it (online §VI pruning).
	// ≤ 0 means DefaultStateBudget.
	StateBudget int
	// Tfactor selects high-probability destinations for the snapshot
	// prune, the drift score, and the fitness check. ≤ 0 means
	// model.DefaultTfactor.
	Tfactor float64
	// Decay is the per-epoch exponential forgetting factor applied to
	// the accumulator before folding new evidence in: counts are
	// multiplied by Decay each epoch, so a transition unseen for n
	// epochs fades as Decay^n. 0 means DefaultDecay; must be < 1
	// (values ≥ 1 are clamped to the default — an unforgetting
	// accumulator can never track drift).
	Decay float64
	// DriftTrip is the divergence (1 − coverage of the installed model
	// over the epoch's transitions) at which the drift guard
	// quarantines the gate. 0 means DefaultDriftTrip; negative
	// disables the drift guard.
	DriftTrip float64
	// StaleEpochs is how many consecutive epochs without a healthy
	// snapshot quarantine the gate. ≤ 0 means DefaultStaleEpochs.
	StaleEpochs int
	// MinStates is the snapshot fitness floor passed to
	// analyze.Analyze. ≤ 0 means DefaultMinStates — deliberately laxer
	// than the offline analyzer's default: an online snapshot is
	// re-audited every epoch, so a small model is a smaller risk.
	MinStates int
	// MaxMetric is the guidance-metric ceiling passed to
	// analyze.Analyze (percent; a model at or above it is unfit). 0
	// means the analyzer's offline default
	// (analyze.UnfitMetricThreshold); small simulated workloads with
	// few states may warrant a laxer bar, since every installed
	// snapshot is re-scored against the live stream each epoch and the
	// drift guard catches a model that stops predicting.
	MaxMetric float64
	// Inject, when non-nil, arms the online fault hooks:
	// fault.StreamDrop / fault.StreamDup on the enqueue path,
	// fault.SnapshotAbort in the snapshot build, and
	// fault.EpochSwapStall immediately before a model swap (stalling
	// the learner, never the commit path).
	Inject *fault.Injector
	// Synchronous folds each complete epoch inline on the goroutine
	// whose event claimed the epoch's last position, instead of on a
	// background learner goroutine — for tests and simulators. Start
	// is then a no-op; Close still folds the rest.
	Synchronous bool
}

// Stats is a snapshot of the learner's counters.
type Stats struct {
	// Events were accepted into the ring; Dropped found it full (or
	// were claimed by the StreamDrop fault); Dups were enqueued twice
	// by the StreamDup fault. Events+Dups is the number of ring
	// positions claimed.
	Events, Dropped, Dups uint64
	// Epochs is how many epochs were processed, whatever they held;
	// Swaps how many produced a snapshot healthy enough to install.
	// Before Close, Epochs is (Events+Dups)/EpochEvents once the
	// learner has caught up.
	Epochs, Swaps uint64
	// Quarantines / Rearms count the learner's guard actions on the
	// gate. SnapshotAborts counts snapshot builds lost to the
	// SnapshotAbort fault; StaleSkips counts epochs whose snapshot was
	// rejected by the fitness/coverage guard.
	Quarantines, Rearms, SnapshotAborts, StaleSkips uint64
	// Unattributed counts aborts whose killer commit was not in the
	// same epoch (late attribution across an epoch boundary is
	// dropped, an accepted approximation).
	Unattributed uint64
	// LastDivergence is the drift score of the most recent
	// guard-eligible epoch; AccStates the accumulator's current size.
	LastDivergence float64
	AccStates      int
	// Quarantined reports whether the learner currently holds the gate
	// quarantined.
	Quarantined bool
}

// Learner is the streaming TSA controller. Create with New, connect as
// a trace.Tracer (alongside the guide, via trace.Multi), then Start it.
type Learner struct {
	ctrl *guide.Controller

	epochEvents int
	stateBudget int
	tf          float64
	decay       float64
	driftTrip   float64
	staleEpochs int
	minStates   int
	maxMetric   float64
	sync        bool
	inject      *fault.Injector

	// ring is the event stream; the position a claim gets is the
	// event's place in it.
	ring *trace.EventRing

	wake chan struct{} // buffered(1): epoch-complete signal
	done chan struct{}
	wg   sync.WaitGroup
	on   atomic.Bool // background goroutine running

	// mu serializes epoch processing and the learner state below. Only
	// the claim that completes an epoch, in Synchronous mode, takes it
	// on a tracer call.
	mu        sync.Mutex
	acc       *model.TSA
	buf       []trace.Event // epoch scratch, reused across epochs
	taken     uint64        // ring positions folded so far
	prev      tts.State     // last final state of the previous epoch
	havePrev  bool
	unhealthy int  // consecutive guard-failed epochs
	quarOwned bool // we quarantined the gate (so a healthy swap re-arms)
	decided   int  // decide-sized epochs processed (warmup gating)

	dropped        atomic.Uint64
	dups           atomic.Uint64
	epochs         atomic.Uint64
	swaps          atomic.Uint64
	quarantines    atomic.Uint64
	rearms         atomic.Uint64
	snapshotAborts atomic.Uint64
	staleSkips     atomic.Uint64
	unattributed   atomic.Uint64
	lastDivergence atomic.Uint64 // math.Float64bits
	accStates      atomic.Uint64
	quarantined    atomic.Bool
}

var _ trace.Tracer = (*Learner)(nil)

// New builds a Learner feeding ctrl. ctrl is typically built with no
// model (cold start: the gate passes everything until the first
// snapshot swaps in) or with an offline-profiled model the stream then
// keeps fresh.
func New(ctrl *guide.Controller, opts Options) *Learner {
	l := &Learner{
		ctrl:        ctrl,
		epochEvents: opts.EpochEvents,
		stateBudget: opts.StateBudget,
		tf:          opts.Tfactor,
		decay:       opts.Decay,
		driftTrip:   opts.DriftTrip,
		staleEpochs: opts.StaleEpochs,
		minStates:   opts.MinStates,
		maxMetric:   opts.MaxMetric,
		sync:        opts.Synchronous,
		inject:      opts.Inject,
		wake:        make(chan struct{}, 1),
		done:        make(chan struct{}),
	}
	if l.epochEvents <= 0 {
		l.epochEvents = DefaultEpochEvents
	}
	l.ring = trace.NewEventRing(max(minRing, 2*l.epochEvents))
	if l.stateBudget <= 0 {
		l.stateBudget = DefaultStateBudget
	}
	if l.tf <= 0 {
		l.tf = model.DefaultTfactor
	}
	if l.decay == 0 || l.decay >= 1 || l.decay < 0 {
		l.decay = DefaultDecay
	}
	if l.driftTrip == 0 {
		l.driftTrip = DefaultDriftTrip
	}
	if l.staleEpochs <= 0 {
		l.staleEpochs = DefaultStaleEpochs
	}
	if l.minStates <= 0 {
		l.minStates = DefaultMinStates
	}
	threads := 1
	if m := ctrl.Model(); m != nil && m.Threads > 0 {
		threads = m.Threads
	}
	l.acc = model.New(threads)
	return l
}

// OnCommit implements trace.Tracer. Hot path: one CAS to claim a ring
// position — no locks, no allocations, no blocking.
func (l *Learner) OnCommit(instance uint64, p tts.Pair) {
	l.observe(trace.Event{Inst: instance, Pair: p, Kind: trace.EventCommit})
}

// OnAbort implements trace.Tracer; same hot-path contract as OnCommit.
func (l *Learner) OnAbort(p tts.Pair, killer uint64) {
	if killer == 0 {
		return // self-abort or unattributed: carries no transition signal
	}
	l.observe(trace.Event{Inst: killer, Pair: p, Kind: trace.EventAbort})
}

// observe is the shared enqueue path.
func (l *Learner) observe(ev trace.Event) {
	if l.inject.Fire(fault.StreamDrop) {
		l.dropped.Add(1)
		return
	}
	pos, ok := l.ring.Enqueue(ev)
	if !ok {
		l.dropped.Add(1)
		return
	}
	l.claimed(pos)
	if l.inject.Fire(fault.StreamDup) {
		// Duplicate delivery: the same event enqueued twice, at a
		// position of its own, as a real double-fire would be. The
		// epoch fold must tolerate it — counts skew slightly, guidance
		// must not wedge.
		if pos, ok := l.ring.Enqueue(ev); ok {
			l.dups.Add(1)
			l.claimed(pos)
		}
	}
}

// claimed acts on a successful claim of ring position pos: the claim of
// an epoch's last position folds the complete epochs (Synchronous) or
// wakes the learner goroutine to fold them.
func (l *Learner) claimed(pos uint64) {
	if (pos+1)%uint64(l.epochEvents) != 0 {
		return
	}
	if l.sync {
		l.fold(false)
		return
	}
	select {
	case l.wake <- struct{}{}:
	default: // learner already signalled
	}
}

// Start launches the background learner goroutine. A no-op in
// Synchronous mode or when already started.
func (l *Learner) Start() {
	if l.sync || l.on.Swap(true) {
		return
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			select {
			case <-l.done:
				return
			case <-l.wake:
				l.fold(false)
			}
		}
	}()
}

// Close stops the background goroutine (if any), folds every complete
// epoch, and then folds the rest of the stream as a final, short epoch.
// Close ends the stream: events traced after it are folded by no one
// but a later Close.
func (l *Learner) Close() {
	if l.on.Swap(false) {
		close(l.done)
		l.wg.Wait()
	}
	l.fold(true)
}

// Stats returns a snapshot of the learner's counters.
func (l *Learner) Stats() Stats {
	dups := l.dups.Load()
	return Stats{
		Events:         l.ring.Claimed() - dups,
		Dropped:        l.dropped.Load(),
		Dups:           dups,
		Epochs:         l.epochs.Load(),
		Swaps:          l.swaps.Load(),
		Quarantines:    l.quarantines.Load(),
		Rearms:         l.rearms.Load(),
		SnapshotAborts: l.snapshotAborts.Load(),
		StaleSkips:     l.staleSkips.Load(),
		Unattributed:   l.unattributed.Load(),
		LastDivergence: loadFloat(&l.lastDivergence),
		AccStates:      int(l.accStates.Load()),
		Quarantined:    l.quarantined.Load(),
	}
}

// fold processes every complete epoch claimed so far, in position
// order; with final set it then processes the claimed rest as one short
// epoch. It runs on the learner goroutine, inline on a producer in
// Synchronous mode, or in Close; mu serializes it.
func (l *Learner) fold(final bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := uint64(l.epochEvents)
	for l.ring.Claimed()-l.taken >= e {
		l.processEpoch(l.take(e))
	}
	if n := l.ring.Claimed() - l.taken; final && n > 0 {
		l.processEpoch(l.take(n))
	}
}

// take dequeues the next n ring positions, all of them claimed. A
// position can be claimed but not yet published while its producer is
// between its claim and its store; take yields until it is. Caller
// holds mu.
func (l *Learner) take(n uint64) []trace.Event {
	l.buf = l.buf[:0]
	for uint64(len(l.buf)) < n {
		ev, ok := l.ring.Dequeue()
		if !ok {
			runtime.Gosched()
			continue
		}
		l.buf = append(l.buf, ev)
	}
	l.taken += n
	return l.buf
}

// processEpoch groups, folds, audits, and (when healthy) installs one
// epoch. Caller holds mu.
func (l *Learner) processEpoch(events []trace.Event) {
	l.epochs.Add(1)
	// Kills whose commit fell outside this epoch are dropped and
	// counted.
	states, unattributed := trace.Build(events)
	l.unattributed.Add(uint64(unattributed))
	if len(states) == 0 {
		return
	}

	// The transition chain, bridged from the previous epoch's final
	// state so epoch boundaries don't lose an edge.
	run := states
	if l.havePrev {
		run = append([]tts.State{l.prev}, states...)
	}
	transitions := make([]analyze.Transition, 0, len(run)-1)
	for i := 1; i < len(run); i++ {
		transitions = append(transitions, analyze.Transition{
			From: run[i-1].Key(), To: run[i].Key(),
		})
	}
	l.prev = states[len(states)-1]
	l.havePrev = true

	// Guard decisions need a real sample; the final Close flush (or a
	// drop-starved epoch) still teaches the accumulator but decides
	// nothing.
	decide := len(events) >= l.epochEvents/minEpochFraction

	// Drift guard: score the *installed* model against what actually
	// happened this epoch, before the new evidence dilutes anything.
	// Suspended while we hold the gate quarantined — the installed
	// model is known-stale then and is not steering anything; recovery
	// is judged purely on whether a fresh snapshot probes healthy —
	// and before anything has installed, when there is no model whose
	// predictions could have drifted (a cold gate admits everything;
	// scoring its nil model would read as divergence 1 and quarantine
	// an already-passthrough gate on the very first epoch).
	drifted := false
	if decide && !l.quarOwned && l.driftTrip > 0 && len(transitions) > 0 {
		if cur := l.ctrl.Model(); cur != nil && cur.NumStates() > 0 {
			div := analyze.CoverageOf(cur, transitions, l.tf).Divergence()
			storeFloat(&l.lastDivergence, div)
			if div >= l.driftTrip {
				drifted = true
			}
		}
	}

	// Fold: age the accumulator, add the epoch, enforce the budget.
	l.acc.Decay(l.decay)
	l.acc.AddRun(run)
	l.acc.EvictToBudget(l.stateBudget)
	l.accStates.Store(uint64(l.acc.NumStates()))

	// Snapshot build (off the commit path; the gate keeps running on
	// the old tables throughout). Fitness is audited on the full
	// accumulator clone — a pruned model is all guided edges by
	// construction, which would always read as metric 100 — and the
	// §VI-pruned cut is what actually swaps in.
	if decide {
		l.decided++
	}
	// Warmup: a snapshot built from the very first epoch is all noise —
	// small-sample bias reads as exploitable structure and a freshly-
	// guided gate amplifies it. The first decide-sized epoch neither
	// installs nor counts as stale; the second corroborates (or not).
	// Once a model is live, every later epoch may refresh it.
	warmup := l.decided <= 1 && l.swaps.Load() == 0

	var snap *model.TSA
	healthy := false
	if l.inject.Fire(fault.SnapshotAbort) {
		l.snapshotAborts.Add(1)
	} else {
		full := l.acc.Clone()
		snap = full.Prune(l.tf)
		if decide && !warmup {
			rep := analyze.Analyze(full, analyze.Options{
				Tfactor: l.tf, MinStates: l.minStates, MaxMetric: l.maxMetric,
			})
			cov := analyze.CoverageOf(snap, transitions, l.tf).Coverage()
			healthy = rep.Fit && cov > 1-l.clampedTrip()
		}
	}

	switch {
	case drifted:
		// The workload moved away from the installed model. Even a
		// snapshot that passes audit is suspect here — it was folded
		// from an epoch that straddles two regimes — so degrade first
		// (within this window), flush the stale evidence fast, and let
		// the next clean epoch's snapshot earn the re-arm.
		l.unhealthy++
		l.quarOwned = true
		l.quarantined.Store(true)
		l.quarantines.Add(1)
		l.ctrl.Quarantine()
		l.acc.Decay(l.decay * l.decay)
	case healthy:
		l.unhealthy = 0
		// Stall injection point: a wedged swapper must stall only
		// itself — it holds no lock the commit path can observe.
		l.inject.Sleep(fault.EpochSwapStall)
		l.ctrl.SwapModel(snap)
		l.swaps.Add(1)
		if l.quarOwned {
			l.quarOwned = false
			l.quarantined.Store(false)
			l.ctrl.Rearm()
			l.rearms.Add(1)
		}
	case warmup && decide:
		// Age the warmup epoch's evidence extra-fast (same flush as a
		// drift quarantine): its low-count noise edges truncate away,
		// so the first installed model is dominated by corroborated
		// transitions.
		l.acc.Decay(l.decay * l.decay)
	case decide:
		l.staleSkips.Add(1)
		l.unhealthy++
		if l.unhealthy >= l.staleEpochs {
			if !l.quarOwned {
				l.quarOwned = true
				l.quarantined.Store(true)
				l.quarantines.Add(1)
			}
			l.ctrl.Quarantine()
		}
	}
}

// clampedTrip bounds the drift threshold used for snapshot coverage so
// a disabled drift guard (DriftTrip < 0) still leaves a sane fitness
// bar.
func (l *Learner) clampedTrip() float64 {
	if l.driftTrip <= 0 || l.driftTrip > 1 {
		return DefaultDriftTrip
	}
	return l.driftTrip
}

func storeFloat(a *atomic.Uint64, f float64) { a.Store(math.Float64bits(f)) }
func loadFloat(a *atomic.Uint64) float64     { return math.Float64frombits(a.Load()) }
