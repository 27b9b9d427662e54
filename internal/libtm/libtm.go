// Package libtm re-implements the LibTM software transactional memory
// of Lupei et al. (PPoPP'10) that SynQuake is built on (paper
// Section VIII): an object-based STM with selectable conflict
// *detection* — from fully pessimistic (visible readers and
// encounter-time write locks) to fully optimistic (invisible reads
// validated at commit, commit-time write locks) — and selectable
// conflict *resolution* between writers and visible readers:
// abort-readers or wait-for-readers.
//
// The paper's SynQuake experiments use fully-optimistic detection with
// abort-readers resolution; the other modes exist because LibTM offers
// them and the mode choice materially changes the abort/variance
// profile (they are exercised by the mode-equivalence tests and the
// ablation benchmarks).
//
// As in package tl2, every transaction attempt has a unique instance ID
// and aborts carry their killer's instance, so the same trace/model/
// guide pipeline plugs in unchanged.
package libtm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gstm/internal/effect"
	"gstm/internal/fault"
	"gstm/internal/overload"
	"gstm/internal/tts"
	"gstm/internal/txn"
)

// ReadDetection selects how reads are detected.
type ReadDetection int

// Read detection modes.
const (
	// VisibleReads registers the reader on the object so writers see it
	// (pessimistic reads).
	VisibleReads ReadDetection = iota
	// InvisibleReads records a version and validates at commit
	// (optimistic reads).
	InvisibleReads
)

// WriteDetection selects when write locks are acquired.
type WriteDetection int

// Write detection modes.
const (
	// EncounterWrites acquires the object's write lock at Write() time.
	EncounterWrites WriteDetection = iota
	// CommitWrites buffers writes and locks at commit (lazy).
	CommitWrites
)

// Resolution selects how a writer treats visible readers it conflicts
// with.
type Resolution int

// Conflict resolution policies.
const (
	// AbortReaders kills conflicting visible readers.
	AbortReaders Resolution = iota
	// WaitForReaders spins (bounded) until readers drain, then aborts
	// itself if they do not.
	WaitForReaders
)

// Mode is a full LibTM configuration.
type Mode struct {
	Reads      ReadDetection
	Writes     WriteDetection
	Resolution Resolution
}

// FullyOptimistic is the configuration the paper's SynQuake experiments
// use: invisible reads, commit-time write locks, abort-readers.
var FullyOptimistic = Mode{Reads: InvisibleReads, Writes: CommitWrites, Resolution: AbortReaders}

// FullyPessimistic acquires read and write locks at encounter time.
var FullyPessimistic = Mode{Reads: VisibleReads, Writes: EncounterWrites, Resolution: WaitForReaders}

// String renders the mode compactly.
func (m Mode) String() string {
	r, w, c := "vis", "enc", "abort-readers"
	if m.Reads == InvisibleReads {
		r = "invis"
	}
	if m.Writes == CommitWrites {
		w = "commit"
	}
	if m.Resolution == WaitForReaders {
		c = "wait-for-readers"
	}
	return fmt.Sprintf("libtm(%s-reads/%s-writes/%s)", r, w, c)
}

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
	// Mode selects detection and resolution. The zero value is
	// fully pessimistic with abort-readers; most callers pass
	// FullyOptimistic or FullyPessimistic.
	Mode Mode
	// WaitSpin bounds how long WaitForReaders spins before self-abort.
	// Defaults to 64 yields.
	WaitSpin int
	// Inject, when non-nil, arms the deterministic fault-injection
	// hooks in the commit path (fault.CommitAbort, fault.CommitDelay,
	// fault.LockReleaseDelay).
	Inject *fault.Injector
	// Mutate enables deliberate correctness knockouts for the opacity
	// oracle's mutation harness (internal/oracle); see Mutations. All
	// fields false (the default) leaves the runtime stock.
	Mutate Mutations

	// Driver options, documented on the txn.Config field of the same
	// name: retry bound, access-yield interval, escalation threshold and
	// age, plain-Atomic deadline, livelock-watchdog window, scheduler
	// hook, read-only manifest and its guard, admission limiter.
	MaxRetries      int
	YieldEvery      int
	EscalateAfter   int
	EscalateTime    time.Duration
	DefaultDeadline time.Duration
	WatchdogWindow  time.Duration
	Yield           func()
	Manifest        *effect.Manifest
	ROGuard         effect.GuardMode
	Overload        *overload.Limiter
}

// Mutations are deliberate, test-only correctness knockouts used to
// prove the opacity oracle can detect real bugs (ISSUE 5's mutation
// harness). They are plain Options fields rather than build tags so the
// explorer can run stock and mutated instances in one process.
type Mutations struct {
	// SkipReaderWait makes a writer take the write lock immediately even
	// when foreign visible readers are registered, without dooming or
	// waiting for them — breaking the visible-read protection both
	// resolution policies provide.
	SkipReaderWait bool
	// SkipReadValidation disables commit-time validation of invisible
	// reads, letting a transaction commit on top of a torn snapshot.
	SkipReadValidation bool
	// SkipROValidation disables commit-time invisible-read validation
	// on certified-readonly attempts only, so the explorer can prove
	// the certified path's validation is load-bearing: with it knocked
	// out, a certified scanner commits torn snapshots — an opacity
	// violation the oracle must catch.
	SkipROValidation bool
	// SkipVersionBump publishes commit-time writes without advancing
	// the object's version — LibTM's per-object analogue of a broken
	// clock merge. Invisible readers validating against the stale
	// version cannot see that their snapshot was overwritten, so torn
	// snapshots commit — an opacity violation the explorer's mutation
	// harness must catch.
	SkipVersionBump bool
}

// DefaultEscalateAfter is the escalation abort threshold when
// Options.EscalateAfter is zero.
const DefaultEscalateAfter = txn.DefaultEscalateAfter

// STM is a LibTM transactional memory domain: the shared transaction
// driver's state (txn.Core — counters, hooks, escalation, whose methods
// STM promotes) and the protocol options.
type STM struct {
	txn.Core
	opts Options
}

// New returns an STM with the given options.
func New(opts Options) *STM {
	if opts.WaitSpin <= 0 {
		opts.WaitSpin = 64
	}
	s := &STM{}
	opts.YieldEvery = s.Init(txn.Config{
		ErrRetryLimit:        ErrRetryLimit,
		ErrDeadline:          ErrDeadline,
		ErrReadOnlyViolation: ErrReadOnlyViolation,
		MaxRetries:           opts.MaxRetries,
		YieldEvery:           opts.YieldEvery,
		EscalateAfter:        opts.EscalateAfter,
		EscalateTime:         opts.EscalateTime,
		DefaultDeadline:      opts.DefaultDeadline,
		WatchdogWindow:       opts.WatchdogWindow,
		Yield:                opts.Yield,
		Manifest:             opts.Manifest,
		ROGuard:              opts.ROGuard,
		Overload:             opts.Overload,
	}).YieldEvery
	s.opts = opts
	return s
}

// Mode returns the configured mode.
func (s *STM) Mode() Mode { return s.opts.Mode }

// yield is the runtime's single suspension primitive: Options.Yield
// when armed, runtime.Gosched otherwise.
func (s *STM) yield() {
	if y := s.opts.Yield; y != nil {
		y()
		return
	}
	runtime.Gosched()
}

// Obj is one transactional object holding an int64. Create with NewObj
// and never copy it after first use (enforced by `go vet -copylocks`
// and gstmlint's gstm003).
type Obj struct {
	_          noCopy
	mu         sync.Mutex
	version    uint64
	writerInst uint64         // instance holding the write lock (0 = none)
	writerTx   *Tx            // the locking transaction
	lastWriter uint64         // instance of the last committed writer
	readers    map[*Tx]uint64 // visible readers → their instance
	val        int64
}

// NewObj returns an Obj initialized to x.
func NewObj(x int64) *Obj {
	return &Obj{val: x, readers: make(map[*Tx]uint64)}
}

// NewFloatObj returns an Obj initialized to the bit pattern of f.
func NewFloatObj(f float64) *Obj {
	return NewObj(int64(math.Float64bits(f)))
}

// Value loads the committed value non-transactionally (for setup and
// post-run verification).
func (o *Obj) Value() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.val
}

// FloatValue loads the committed value as a float64.
func (o *Obj) FloatValue() float64 {
	return math.Float64frombits(uint64(o.Value()))
}

// Store sets the value non-transactionally (setup only).
func (o *Obj) Store(x int64) {
	o.mu.Lock()
	o.val = x
	o.mu.Unlock()
}

// StoreFloat sets a float64 non-transactionally (setup only).
func (o *Obj) StoreFloat(f float64) {
	o.Store(int64(math.Float64bits(f)))
}

// ErrRetryLimit is returned when Options.MaxRetries is exceeded.
var ErrRetryLimit = errors.New("libtm: transaction exceeded retry limit")

// ErrDeadline is returned by AtomicCtx when the context expires before
// the transaction commits; the returned error wraps both ErrDeadline
// and the context's own error.
var ErrDeadline = errors.New("libtm: transaction deadline exceeded")

// ErrReadOnlyViolation is returned (wrapped, naming the site key) when
// a transaction certified readonly by Options.Manifest issues a write
// and the soundness guard is in trap mode.
var ErrReadOnlyViolation = errors.New("libtm: write under a certified-readonly transaction")

type readEntry struct {
	o   *Obj
	ver uint64
}

type writeEntry struct {
	o   *Obj
	val int64
}

// Tx is one transaction attempt.
type Tx struct {
	stm      *STM
	pair     tts.Pair
	instance uint64

	invReads []readEntry // invisible-read validation set
	visReads []*Obj      // objects we registered on as visible readers
	writes   []writeEntry
	locked   []*Obj // objects whose write lock we hold (encounter mode)

	// doomed is set by a writer that abort-readers'ed us; killer is its
	// instance.
	doomed atomic.Bool
	killer atomic.Uint64

	// ops counts transactional accesses for YieldEvery interleaving.
	ops int
	// done is the AtomicCtx context's Done channel (nil = no deadline).
	done <-chan struct{}
	// roCert marks a txn.Certified attempt: Write trips the soundness
	// guard.
	roCert bool
	// irrev marks a txn.Irrevocable (escalated serial) attempt: reads and
	// writes take write locks at encounter time and cannot abort.
	irrev bool
	// mon is the per-attempt monitor snapshot (nil = no monitoring).
	mon Monitor
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
func (tx *Tx) maybeYield() {
	ye := tx.stm.opts.YieldEvery
	if ye <= 0 {
		return
	}
	tx.ops++
	if tx.ops%ye == 0 {
		tx.stm.yield()
	}
}

// Pair returns the (transaction, thread) identity of the attempt.
func (tx *Tx) Pair() tts.Pair { return tx.pair }

func (tx *Tx) abort(killer uint64) {
	panic(txn.Abort{Killer: killer})
}

// checkDoomed aborts the transaction if a writer killed it.
func (tx *Tx) checkDoomed() {
	if tx.doomed.Load() {
		tx.abort(tx.killer.Load())
	}
}

func (tx *Tx) lookupWrite(o *Obj) (int64, bool) {
	for i := len(tx.writes) - 1; i >= 0; i-- {
		if tx.writes[i].o == o {
			return tx.writes[i].val, true
		}
	}
	return 0, false
}

// monRead reports a completed transactional read to the monitor.
func (tx *Tx) monRead(o *Obj, v int64) {
	if tx.mon != nil {
		tx.mon.OnTxRead(tx.instance, o, v)
	}
}

// Read returns the transactional value of o.
func (tx *Tx) Read(o *Obj) int64 {
	tx.maybeYield()
	tx.checkDoomed()
	if v, ok := tx.lookupWrite(o); ok {
		tx.monRead(o, v)
		return v
	}
	if tx.irrev {
		// Escalated: reads take the write lock (two-phase locking), so
		// no invisible read can be invalidated and no visible-reader
		// registration can be doomed — the attempt cannot abort.
		tx.lockIrrev(o)
		o.mu.Lock()
		v := o.val
		o.mu.Unlock()
		tx.monRead(o, v)
		return v
	}
	o.mu.Lock()
	if o.writerInst != 0 && o.writerTx != tx {
		k := o.writerInst
		o.mu.Unlock()
		tx.abort(k)
	}
	v := o.val
	if tx.stm.opts.Mode.Reads == VisibleReads {
		if _, already := o.readers[tx]; !already {
			o.readers[tx] = tx.instance
			tx.visReads = append(tx.visReads, o)
		}
	} else {
		tx.invReads = append(tx.invReads, readEntry{o, o.version})
	}
	o.mu.Unlock()
	tx.monRead(o, v)
	return v
}

// Write transactionally stores x into o. In encounter mode the write
// lock is taken now; in commit mode the write is buffered.
func (tx *Tx) Write(o *Obj, x int64) {
	if tx.roCert {
		// Soundness guard: the manifest certified this transaction ID
		// readonly, so no write may ever reach here. Trap before
		// anything is buffered or locked; the driver decides the
		// consequence per Options.ROGuard.
		panic(txn.ROViolation{})
	}
	tx.maybeYield()
	tx.checkDoomed()
	if tx.irrev {
		// Escalated: lock at encounter time regardless of mode, but
		// keep the store buffered so a user error rolls back cleanly.
		tx.lockIrrev(o)
	} else if tx.stm.opts.Mode.Writes == EncounterWrites {
		tx.lockForWrite(o)
	}
	for i := len(tx.writes) - 1; i >= 0; i-- {
		if tx.writes[i].o == o {
			tx.writes[i].val = x
			if tx.mon != nil {
				tx.mon.OnTxWrite(tx.instance, o, x)
			}
			return
		}
	}
	tx.writes = append(tx.writes, writeEntry{o, x})
	if tx.mon != nil {
		tx.mon.OnTxWrite(tx.instance, o, x)
	}
}

// ReadFloat reads o as a float64.
func (tx *Tx) ReadFloat(o *Obj) float64 {
	return math.Float64frombits(uint64(tx.Read(o)))
}

// WriteFloat writes f into o.
func (tx *Tx) WriteFloat(o *Obj, f float64) {
	tx.Write(o, int64(math.Float64bits(f)))
}

// lockForWrite acquires o's write lock, resolving conflicts with
// visible readers per the configured policy. Aborts self on
// writer-writer conflict.
func (tx *Tx) lockForWrite(o *Obj) {
	// Quiesce before the first write lock, and only the first:
	// txn.Token's deadlock-freedom rule.
	if len(tx.locked) == 0 {
		tx.stm.Irrev.Quiesce()
	}
	for spin := 0; ; spin++ {
		o.mu.Lock()
		if o.writerTx == tx {
			o.mu.Unlock()
			return // already ours
		}
		if o.writerInst != 0 {
			k := o.writerInst
			o.mu.Unlock()
			tx.abort(k) // writer-writer: newcomer yields
		}
		// Resolve visible readers (other than ourselves).
		others := 0
		for r := range o.readers {
			if r != tx {
				others++
			}
		}
		if others == 0 || tx.stm.opts.Mutate.SkipReaderWait {
			o.writerInst = tx.instance
			o.writerTx = tx
			tx.locked = append(tx.locked, o)
			o.mu.Unlock()
			return
		}
		switch tx.stm.opts.Mode.Resolution {
		case AbortReaders:
			for r := range o.readers {
				if r == tx {
					continue
				}
				r.killer.Store(tx.instance)
				r.doomed.Store(true)
				delete(o.readers, r)
			}
			o.writerInst = tx.instance
			o.writerTx = tx
			tx.locked = append(tx.locked, o)
			o.mu.Unlock()
			return
		case WaitForReaders:
			o.mu.Unlock()
			// The wait observes the deadline and the irrevocable flag: a
			// cancelled transaction stops waiting, and a lock holder must
			// not out-wait an irrevocable transaction that needs its locks.
			if spin >= tx.stm.opts.WaitSpin || tx.ctxDone() ||
				(len(tx.locked) > 0 && tx.stm.Irrev.Active()) {
				tx.abort(0) // readers did not drain: self-abort, unknown killer
			}
			tx.stm.yield()
		}
	}
}

// Commit finishes the attempt: acquire commit-time locks, validate
// invisible reads, publish writes, release everything. (An irrevocable
// attempt already holds its locks and only publishes.)
func (policy) Commit(tx *Tx) {
	if tx.irrev {
		tx.commitIrrev()
		return
	}
	// Suspension point between body and commit protocol (see
	// Options.YieldEvery): guarantees overlap windows for short
	// transactions on under-provisioned hosts.
	if tx.stm.opts.YieldEvery > 0 {
		tx.stm.yield()
	}
	if inj := tx.stm.opts.Inject; inj != nil {
		if inj.Fire(fault.CommitAbort) {
			tx.abort(0)
		}
		inj.Sleep(fault.CommitDelay)
	}
	if tx.stm.opts.Mode.Writes == CommitWrites {
		for _, w := range tx.writes {
			tx.lockForWrite(w.o)
		}
	}
	tx.checkDoomed()
	// Validate invisible reads: version unchanged and no foreign writer.
	// The mutation knockout (oracle sensitivity harness) skips this loop
	// wholesale, committing on top of whatever snapshot the reads saw.
	if !tx.stm.opts.Mutate.SkipReadValidation &&
		!(tx.roCert && tx.stm.opts.Mutate.SkipROValidation) {
		for _, r := range tx.invReads {
			r.o.mu.Lock()
			bad := r.o.version != r.ver || (r.o.writerInst != 0 && r.o.writerTx != tx)
			var k uint64
			if bad {
				if r.o.writerInst != 0 && r.o.writerTx != tx {
					k = r.o.writerInst // a foreign writer holds the lock
				} else {
					// The version moved (possibly while we hold our own
					// commit-time lock): the culprit is the committer that
					// bumped it, never ourselves.
					k = r.o.lastWriter
				}
			}
			r.o.mu.Unlock()
			if bad {
				tx.abort(k)
			}
		}
	}
	// Validation passed and every write lock is held: an injected
	// stall here starves rivals blocked on those locks — the
	// worst-case committer.
	if inj := tx.stm.opts.Inject; inj != nil {
		inj.Sleep(fault.LockReleaseDelay)
	}
	// Publish writes and release write locks. The SkipVersionBump
	// mutation (oracle sensitivity harness) publishes the value without
	// moving the version, blinding concurrent invisible-read validation.
	for _, w := range tx.writes {
		w.o.mu.Lock()
		w.o.val = w.val
		if !tx.stm.opts.Mutate.SkipVersionBump {
			w.o.version++
		}
		w.o.lastWriter = tx.instance
		w.o.writerInst = 0
		w.o.writerTx = nil
		w.o.mu.Unlock()
	}
	tx.locked = tx.locked[:0]
	tx.releaseVisibleReads()
}

// cleanupAfterAbort releases everything a non-committing attempt still
// holds — write locks and visible-reader registrations. It is the
// policy's Release: the driver runs it after a conflict abort, a user
// error, a trapped read-only violation and a panic out of the body.
func (tx *Tx) cleanupAfterAbort() {
	for _, o := range tx.locked {
		o.mu.Lock()
		if o.writerTx == tx {
			o.writerInst = 0
			o.writerTx = nil
		}
		o.mu.Unlock()
	}
	tx.locked = tx.locked[:0]
	tx.releaseVisibleReads()
}

func (tx *Tx) releaseVisibleReads() {
	for _, o := range tx.visReads {
		o.mu.Lock()
		delete(o.readers, tx)
		o.mu.Unlock()
	}
	tx.visReads = tx.visReads[:0]
}

// Atomic executes fn transactionally as static transaction txID on the
// given thread, retrying on conflicts. A non-nil error from fn rolls
// back and returns without retry. The retry loop and its outcomes
// (ErrRetryLimit, ErrDeadline, escalation) are the shared driver's: see
// txn.Run. Not inlined, for tl2.Atomic's reason.
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

// policy is LibTM's side of the transaction driver (txn.Policy): the
// descriptor pool (pool.go) and the per-attempt protocol steps.
type policy struct{ *STM }

func (p policy) Acquire(pair tts.Pair, done <-chan struct{}) *Tx {
	tx := txPool.Get().(*Tx)
	tx.stm = p.STM
	tx.pair = pair
	tx.done = done
	return tx
}

func (policy) Begin(tx *Tx, instance uint64, mon txn.Monitor, mode txn.Mode) {
	tx.instance = instance
	tx.invReads = tx.invReads[:0]
	tx.writes = tx.writes[:0]
	tx.ops = 0
	tx.doomed.Store(false)
	tx.killer.Store(0)
	tx.mon = mon
	tx.roCert = mode == txn.Certified
	tx.irrev = mode == txn.Irrevocable
}

func (policy) Release(tx *Tx)               { tx.cleanupAfterAbort() }
func (policy) Backoff(tx *Tx, attempts int) { backoff(tx.done, attempts) }
func (policy) Recycle(tx *Tx)               { putTx(tx) }

// backoff damps retry livelock; sleeps observe the deadline so a
// cancelled transaction is noticed promptly.
func backoff(done <-chan struct{}, attempts int) {
	if attempts < 4 {
		for i := 0; i < attempts; i++ {
			runtime.Gosched()
		}
		return
	}
	d := time.Duration(attempts)
	if d > 32 {
		d = 32
	}
	txn.Sleep(done, d*time.Microsecond)
}
