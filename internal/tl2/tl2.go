// Package tl2 implements the Transactional Locking II software
// transactional memory of Dice, Shalev and Shavit (DISC'06), the STM the
// paper instruments for its STAMP experiments (Section II-A): a
// write-back STM with invisible reads, a global version clock, per-word
// versioned write-locks and commit-time locking (lazy conflict
// detection).
//
// Beyond stock TL2, every transaction attempt carries a unique instance
// ID and every Var remembers the instance that last locked/wrote it, so
// an aborting transaction can name its killer. Those (victim, killer)
// edges are exactly what the paper's profiler logs to build thread
// transactional states.
//
// Transactions run through STM.Atomic, which retries on conflict:
//
//	v := tl2.NewVar(0)
//	err := s.Atomic(threadID, txID, func(tx *tl2.Tx) error {
//		tx.Write(v, tx.Read(v)+1)
//		return nil
//	})
package tl2

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gstm/internal/fault"
	"gstm/internal/overload"
	"gstm/internal/tts"
	"gstm/internal/txn"
)

// lock word layout: bit 0 = locked, bits 1..63 = version.
const lockedBit = 1

// Var is one transactional memory word holding an int64. The zero value
// is a Var with value 0 and version 0, ready for use. Vars must not be
// copied after first use (enforced by `go vet -copylocks` and
// gstmlint's gstm003) and must not be shared between STM instances.
type Var struct {
	_    noCopy
	lock atomic.Uint64 // version<<1 | locked
	val  atomic.Int64
	// who is the instance ID of the attempt currently holding the lock,
	// or of the last committer. Victims read it to attribute aborts.
	who atomic.Uint64
}

// NewVar returns a Var initialized to x.
func NewVar(x int64) *Var {
	v := &Var{}
	v.val.Store(x)
	return v
}

// NewFloatVar returns a Var initialized to the bit pattern of f.
func NewFloatVar(f float64) *Var {
	return NewVar(floatToBits(f))
}

// floatToBits and floatFromBits convert between float64 values and the
// int64 representation Vars store.
func floatToBits(f float64) int64   { return int64(math.Float64bits(f)) }
func floatFromBits(x int64) float64 { return math.Float64frombits(uint64(x)) }

// Value loads the current committed value non-transactionally. Intended
// for post-run verification, not for use inside transactions.
func (v *Var) Value() int64 { return v.val.Load() }

// FloatValue loads the current committed value as a float64.
func (v *Var) FloatValue() float64 { return math.Float64frombits(uint64(v.val.Load())) }

// Store sets the value non-transactionally. Only for setup code that
// runs before any transaction touches the Var.
func (v *Var) Store(x int64) { v.val.Store(x) }

// StoreFloat sets a float64 value non-transactionally (setup only).
func (v *Var) StoreFloat(f float64) { v.val.Store(int64(math.Float64bits(f))) }

// The hook interfaces are the driver's, shared by both runtimes, so one
// gate and one recorder serve either.
type (
	Gate            = txn.Gate
	ShedGate        = txn.ShedGate
	IrrevocableGate = txn.IrrevocableGate
	Monitor         = txn.Monitor
)

// Options configures an STM instance.
type Options struct {
	// LockSpin is how many times Commit re-tries acquiring a busy
	// write-lock before aborting. Defaults to 8.
	LockSpin int
	// BackoffBase is the initial randomized backoff after an abort.
	// Defaults to 500ns; doubles per consecutive abort up to 64x.
	BackoffBase time.Duration
	// Inject, when non-nil, arms the deterministic fault-injection
	// hooks in the commit path (fault.CommitAbort, fault.CommitDelay,
	// fault.LockReleaseDelay). Nil — the default — costs one pointer
	// check per commit.
	Inject *fault.Injector
	// Mutate arms testing-only correctness knockouts that deliberately
	// break the TL2 protocol so the opacity oracle (internal/oracle)
	// can prove it would catch a real bug. Never set outside tests.
	Mutate Mutations

	// Driver options, documented on the txn.Config field of the same
	// name: retry bound, access-yield interval, escalation threshold and
	// age, plain-Atomic deadline, livelock-watchdog window, scheduler
	// hook, admission limiter.
	MaxRetries      int
	YieldEvery      int
	EscalateAfter   int
	EscalateTime    time.Duration
	DefaultDeadline time.Duration
	WatchdogWindow  time.Duration
	Yield           func()
	Overload        *overload.Limiter
}

// Mutations are deliberate protocol defects, off by default. Each one
// converts a safety property into a detectable opacity or
// serializability violation; internal/sched's mutation harness asserts
// the schedule explorer finds each within its budget.
type Mutations struct {
	// SkipReadPostCheck disables Read's per-access validation (the
	// l1==l2 / version≤rv check). Writing transactions stay consistent
	// (commit-time validation still runs), but read-only transactions —
	// which TL2 commits without validation precisely because every read
	// was validated inline — and doomed attempts can observe and even
	// commit inconsistent snapshots: an opacity violation.
	SkipReadPostCheck bool
	// SkipReadSetValidation disables commit-time read-set validation,
	// letting transactions commit against stale reads — a strict-
	// serializability violation (write skew becomes observable).
	SkipReadSetValidation bool
}

// DefaultEscalateAfter is the escalation abort threshold when
// Options.EscalateAfter is zero.
const DefaultEscalateAfter = txn.DefaultEscalateAfter

// STM is a TL2 transactional memory domain: a global version clock, the
// shared transaction driver's state (txn.Core — counters, hooks,
// escalation, whose methods STM promotes) and the protocol options.
// Vars are independent objects but must only be used through a single
// STM at a time.
type STM struct {
	txn.Core
	// clock is advanced by every writing commit, so it sits alone in
	// its 128-byte block, whatever txn.Core's size: sharing a line, or
	// the adjacent line the hardware prefetches with it, with the
	// read-mostly fields around it would bounce them between cores on
	// every commit. TestClockLayout pins this.
	_     [128]byte
	clock atomic.Uint64
	_     [120]byte
	cm    atomic.Pointer[cmBox]
	opts  Options
}

// New returns an STM with the given options.
func New(opts Options) *STM {
	if opts.LockSpin <= 0 {
		opts.LockSpin = 8
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 500 * time.Nanosecond
	}
	s := &STM{}
	opts.YieldEvery = s.Init(txn.Config{
		ErrRetryLimit:   ErrRetryLimit,
		ErrDeadline:     ErrDeadline,
		MaxRetries:      opts.MaxRetries,
		YieldEvery:      opts.YieldEvery,
		EscalateAfter:   opts.EscalateAfter,
		EscalateTime:    opts.EscalateTime,
		DefaultDeadline: opts.DefaultDeadline,
		WatchdogWindow:  opts.WatchdogWindow,
		Yield:           opts.Yield,
		Overload:        opts.Overload,
	}).YieldEvery
	s.opts = opts
	return s
}

// yield is the runtime's suspension point: runtime.Gosched by default,
// or the deterministic scheduler's hook when Options.Yield is set.
func (s *STM) yield() {
	if y := s.opts.Yield; y != nil {
		y()
		return
	}
	runtime.Gosched()
}

// ErrRetryLimit is returned by Atomic when Options.MaxRetries was
// exceeded.
var ErrRetryLimit = errors.New("tl2: transaction exceeded retry limit")

// ErrDeadline is returned by AtomicCtx when the context expires before
// the transaction commits. The returned error wraps both ErrDeadline
// and the context's own error, so errors.Is works against either.
var ErrDeadline = errors.New("tl2: transaction deadline exceeded")

type writeEntry struct {
	v   *Var
	val int64
	// prevWho is the Var's last writer before we locked it at commit,
	// kept for abort attribution when our own lock hides it.
	prevWho uint64
}

// Tx is a single transaction attempt. A Tx is only valid inside the
// function passed to Atomic and must not be retained or shared.
type Tx struct {
	stm      *STM
	pair     tts.Pair
	instance uint64
	rv       uint64
	reads    []*Var
	writes   []writeEntry
	// writeIdx accelerates read-own-write lookups once the write set
	// grows beyond linear-scan comfort.
	writeIdx map[*Var]int
	// ops counts transactional accesses for YieldEvery interleaving;
	// yielding caches opts.YieldEvery > 0 so maybeYield's off switch
	// inlines into Read and Write.
	ops      int
	yielding bool
	// done is the AtomicCtx context's Done channel (nil when the call
	// has no deadline); spin loops and backoff sleeps observe it.
	done <-chan struct{}
	// rng is per-transaction xorshift state for backoff jitter, seeded
	// lazily once per pooled Tx (replaces a time.Now call per abort).
	rng uint64
	// mon is the armed per-operation monitor, loaded once per attempt
	// (nil when off); see SetMonitor.
	mon Monitor
	// irrev marks a txn.Irrevocable (escalated serial) attempt: reads and
	// writes lock Vars at encounter time and cannot abort. ilocked,
	// iprev and iprevWho track the acquired locks and their pre-lock
	// words for publish/rollback (see irrevocable.go).
	irrev    bool
	ilocked  []*Var
	iprev    []uint64
	iprevWho []uint64
}

// ctxDone reports whether the transaction's deadline has expired.
func (tx *Tx) ctxDone() bool {
	if tx.done == nil {
		return false
	}
	select {
	case <-tx.done:
		return true
	default:
		return false
	}
}

// maybeYield emulates multicore interleaving of transactional code on
// under-provisioned hosts (see Options.YieldEvery).
// maybeYield is split so the YieldEvery<=0 fast path stays under the
// inlining budget: with interleaving off, Read and Write pay one flag
// load and a branch here instead of a function call.
func (tx *Tx) maybeYield() {
	if tx.yielding {
		tx.yieldEvery()
	}
}

func (tx *Tx) yieldEvery() {
	tx.ops++
	if tx.ops%tx.stm.opts.YieldEvery == 0 {
		tx.stm.yield()
	}
}

// Preempt is a suspension point inside the transaction's own computation
// (work between accesses, such as stamp.Spin's): a yield, through
// Options.Yield when set, only while the STM emulates interleaving
// (YieldEvery > 0). With interleaving off it is one flag test.
func (tx *Tx) Preempt() {
	if tx.yielding {
		tx.stm.yield()
	}
}

const writeIdxThreshold = 64

// Pair returns the (transaction, thread) identity of this attempt.
func (tx *Tx) Pair() tts.Pair { return tx.pair }

// abort abandons the attempt on a conflict with the given instance,
// telling the contention manager first (tx.Work is still intact here).
func (tx *Tx) abort(killer uint64) {
	if b := tx.stm.cm.Load(); b != nil {
		b.cm.OnAbort(tx)
	}
	panic(txn.Abort{Killer: killer})
}

func (tx *Tx) lookupWrite(v *Var) (int64, bool) {
	if tx.writeIdx != nil && len(tx.writes) > writeIdxThreshold {
		if i, ok := tx.writeIdx[v]; ok {
			return tx.writes[i].val, true
		}
		return 0, false
	}
	for i := len(tx.writes) - 1; i >= 0; i-- {
		if tx.writes[i].v == v {
			return tx.writes[i].val, true
		}
	}
	return 0, false
}

// monRead reports a transactional read to the armed monitor.
func (tx *Tx) monRead(v *Var, x int64) {
	if tx.mon != nil {
		tx.mon.OnTxRead(tx.instance, v, x)
	}
}

// Read returns the transactional value of v, observing the
// transaction's own pending writes. On conflict the attempt aborts and
// Atomic retries the whole function.
func (tx *Tx) Read(v *Var) int64 {
	tx.maybeYield()
	if x, ok := tx.lookupWrite(v); ok {
		tx.monRead(v, x)
		return x
	}
	if tx.irrev {
		tx.lockIrrev(v)
		x := v.val.Load()
		tx.monRead(v, x)
		return x
	}
	l1 := v.lock.Load()
	for attempt := 0; l1&lockedBit != 0; attempt++ {
		if tx.ctxDone() || !tx.consultCM(v, attempt) {
			tx.abort(v.who.Load())
		}
		l1 = v.lock.Load()
	}
	x := v.val.Load()
	l2 := v.lock.Load()
	tx.reads = append(tx.reads, v)
	tx.validateRead(v, l1, l2)
	tx.monRead(v, x)
	return x
}

// validateRead is Read's inline consistency check over the observed
// lock-word pair: a stable word whose version is no newer than the
// begin-time clock sample.
func (tx *Tx) validateRead(v *Var, l1, l2 uint64) {
	if (l1 != l2 || l2>>1 > tx.rv) && !tx.stm.opts.Mutate.SkipReadPostCheck {
		tx.abort(v.who.Load())
	}
}

// Write buffers a transactional store of x into v (write-back: shared
// memory is untouched until commit).
func (tx *Tx) Write(v *Var, x int64) {
	tx.maybeYield()
	if tx.mon != nil {
		tx.mon.OnTxWrite(tx.instance, v, x)
	}
	if tx.irrev {
		// Escalated: lock at encounter time, but still buffer the store
		// so a user error from fn rolls back cleanly (Atomic's contract).
		tx.lockIrrev(v)
	}
	if tx.writeIdx != nil && len(tx.writes) >= writeIdxThreshold {
		if i, ok := tx.writeIdx[v]; ok {
			tx.writes[i].val = x
			return
		}
	} else {
		for i := len(tx.writes) - 1; i >= 0; i-- {
			if tx.writes[i].v == v {
				tx.writes[i].val = x
				return
			}
		}
	}
	tx.writes = append(tx.writes, writeEntry{v: v, val: x})
	if len(tx.writes) == writeIdxThreshold+1 {
		if tx.writeIdx == nil {
			tx.writeIdx = make(map[*Var]int, 2*writeIdxThreshold)
		}
		for i, w := range tx.writes {
			tx.writeIdx[w.v] = i
		}
	} else if tx.writeIdx != nil && len(tx.writes) > writeIdxThreshold {
		tx.writeIdx[v] = len(tx.writes) - 1
	}
}

// ReadFloat reads v as a float64.
func (tx *Tx) ReadFloat(v *Var) float64 {
	return math.Float64frombits(uint64(tx.Read(v)))
}

// WriteFloat writes f into v as a float64 bit pattern.
func (tx *Tx) WriteFloat(v *Var, f float64) {
	tx.Write(v, int64(math.Float64bits(f)))
}

// Commit runs the TL2 commit protocol: lock the write set, increment
// the global clock, validate the read set, write back, release. (An
// irrevocable attempt already holds its locks and only publishes.)
func (policy) Commit(tx *Tx) {
	if tx.irrev {
		tx.publishIrrev()
		return
	}
	// A suspension point between the transaction body and the commit
	// protocol: even two-access transactions overlap with concurrent
	// committers here, as they do under true parallelism.
	if tx.stm.opts.YieldEvery > 0 {
		tx.stm.yield()
	}
	if inj := tx.stm.opts.Inject; inj != nil {
		if inj.Fire(fault.CommitAbort) {
			tx.abort(0)
		}
		inj.Sleep(fault.CommitDelay)
	}
	if len(tx.writes) == 0 {
		// Read-only fast path: per-read validation against rv already
		// guarantees a consistent snapshot at rv.
		tx.cmCommit()
		return
	}
	s := tx.stm
	// Quiesce before the first write lock, abort instead of waiting
	// after it: txn.Token's deadlock-freedom rule.
	s.Irrev.Quiesce()
	locked := 0
	for i := range tx.writes {
		w := &tx.writes[i]
		for attempt := 0; !tx.tryLock(w.v); attempt++ {
			// While an irrevocable transaction is active, waiting here
			// (holding locks it may need) would deadlock its spin —
			// abort immediately instead of consulting the manager.
			if tx.ctxDone() || s.Irrev.Active() || !tx.consultCM(w.v, attempt) {
				killer := w.v.who.Load()
				tx.unlockPrefix(locked)
				tx.abort(killer)
			}
		}
		w.prevWho = w.v.who.Load()
		w.v.who.Store(tx.instance)
		locked++
	}
	// With the whole write set locked, an injected stall here starves
	// every rival spinning on those locks — the worst-case committer.
	if inj := s.opts.Inject; inj != nil {
		inj.Sleep(fault.LockReleaseDelay)
	}
	wv := s.clock.Add(1)
	if wv > tx.rv+1 && !s.opts.Mutate.SkipReadSetValidation {
		for _, r := range tx.reads {
			l := r.lock.Load()
			if l&lockedBit != 0 && r.who.Load() != tx.instance {
				killer := r.who.Load()
				tx.unlockPrefix(locked)
				tx.abort(killer)
			}
			// Validate the version even when we hold the lock ourselves:
			// the locked bit leaves the pre-lock version intact, and a
			// version newer than rv means our earlier read of this Var
			// (it is in both our read and write sets) saw a value that a
			// concurrent commit has since replaced.
			if l>>1 > tx.rv {
				killer := r.who.Load()
				if killer == tx.instance {
					// We overwrote who when locking; recover the real
					// culprit (the committer that bumped the version).
					for i := range tx.writes {
						if tx.writes[i].v == r {
							killer = tx.writes[i].prevWho
							break
						}
					}
				}
				tx.unlockPrefix(locked)
				tx.abort(killer)
			}
		}
	}
	newLock := wv << 1
	for _, w := range tx.writes {
		w.v.val.Store(w.val)
		w.v.lock.Store(newLock)
	}
	tx.cmCommit()
}

// cmCommit tells the contention manager the attempt committed.
func (tx *Tx) cmCommit() {
	if b := tx.stm.cm.Load(); b != nil {
		b.cm.OnCommit(tx)
	}
}

// tryLock attempts to acquire v's write lock with bounded spinning.
func (tx *Tx) tryLock(v *Var) bool {
	spin := tx.stm.opts.LockSpin
	for i := 0; i < spin; i++ {
		l := v.lock.Load()
		if l&lockedBit == 0 {
			if v.lock.CompareAndSwap(l, l|lockedBit) {
				return true
			}
		} else if v.who.Load() == tx.instance {
			return true // already ours (duplicate write entry cannot happen, but be safe)
		}
		tx.stm.yield()
	}
	return false
}

// unlockPrefix releases the first n acquired write locks, restoring
// their pre-lock versions (no writeback happened yet).
func (tx *Tx) unlockPrefix(n int) {
	for i := 0; i < n; i++ {
		v := tx.writes[i].v
		l := v.lock.Load()
		v.lock.Store(l &^ lockedBit)
	}
}

// Atomic executes fn transactionally as static transaction txID on the
// given thread, retrying on conflicts until commit. If fn returns a
// non-nil error the transaction is rolled back (its writes discarded)
// and the error is returned without retrying — the caller-level abort
// idiom. The retry loop and its outcomes (ErrRetryLimit, ErrDeadline,
// escalation) are the shared driver's: see txn.Run.
//
// Not inlined: a caller in another package that inlined this would call
// the generic driver without its escape analysis and heap-allocate
// every body closure.
//
//go:noinline
func (s *STM) Atomic(thread, txID uint16, fn func(*Tx) error) error {
	return txn.Run(&s.Core, policy{s}, tts.Pair{Tx: txID, Thread: thread}, fn)
}

// AtomicCtx is Atomic bounded by ctx (see txn.RunCtx).
func (s *STM) AtomicCtx(ctx context.Context, thread, txID uint16, fn func(*Tx) error) error {
	return s.AtomicPri(ctx, thread, txID, overload.PriNormal, fn)
}

// AtomicPri is AtomicCtx with an explicit admission priority class for
// the overload limiter (Options.Overload).
//
//go:noinline
func (s *STM) AtomicPri(ctx context.Context, thread, txID uint16, pri overload.Pri, fn func(*Tx) error) error {
	return txn.RunCtx(ctx, &s.Core, policy{s}, tts.Pair{Tx: txID, Thread: thread}, pri, fn)
}

// policy is TL2's side of the transaction driver (txn.Policy): the
// descriptor pool and the per-attempt protocol steps.
type policy struct{ *STM }

func (p policy) Acquire(pair tts.Pair, done <-chan struct{}) *Tx {
	tx := txPool.Get().(*Tx)
	tx.stm = p.STM
	tx.pair = pair
	tx.done = done
	return tx
}

func (p policy) Begin(tx *Tx, instance uint64, mon txn.Monitor, mode txn.Mode) {
	tx.instance = instance
	tx.rv = p.clock.Load()
	tx.mon = mon
	tx.irrev = mode == txn.Irrevocable
	tx.ops = 0
	tx.yielding = p.opts.YieldEvery > 0
	tx.reads = tx.reads[:0]
	tx.writes = tx.writes[:0]
	if tx.writeIdx != nil {
		clear(tx.writeIdx)
	}
}

// Release: a TL2 attempt holds locks outside commit (which unlocks its
// own prefix before aborting) only on the irrevocable path.
func (policy) Release(tx *Tx) { tx.rollbackIrrev() }

func (policy) Backoff(tx *Tx, attempts int) { tx.backoff(attempts) }

func (policy) Recycle(tx *Tx) {
	tx.done = nil
	tx.mon = nil
	txPool.Put(tx)
}

// backoff applies randomized exponential backoff after an abort to damp
// livelock, capped at 64x the base. Sleeps observe the transaction's
// deadline so an expiring context is noticed promptly.
func (tx *Tx) backoff(attempts int) {
	shift := attempts
	if shift > 6 {
		shift = 6
	}
	d := tx.stm.opts.BackoffBase << uint(shift)
	j := tx.nextRand()
	d = time.Duration(uint64(d)/2 + j%uint64(d))
	if d < time.Microsecond {
		for i := 0; i <= shift; i++ {
			runtime.Gosched()
		}
		return
	}
	txn.Sleep(tx.done, d)
}

// rngSeedCounter feeds seedRand; every pooled Tx draws a distinct
// stream from it exactly once.
var rngSeedCounter atomic.Uint64

// seedRand derives a well-mixed nonzero xorshift seed (splitmix64
// finalizer over a Weyl sequence).
func seedRand() uint64 {
	x := rngSeedCounter.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x | 1
}

// nextRand steps the per-Tx xorshift64 state, seeding it on first use.
// State persists across pool reuse — it is jitter, not randomness that
// needs independence — so the steady-state cost is three shifts, where
// the previous implementation paid a time.Now call per abort.
func (tx *Tx) nextRand() uint64 {
	x := tx.rng
	if x == 0 {
		x = seedRand()
	}
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	tx.rng = x
	return x
}

// txPool recycles Tx scratch structures. Pooling keeps the per-attempt
// allocation cost at zero once warm, which matters because aborted
// attempts re-enter the retry loop at high frequency under contention.
var txPool = sync.Pool{New: func() any {
	return &Tx{reads: make([]*Var, 0, 64), writes: make([]writeEntry, 0, 16)}
}}
