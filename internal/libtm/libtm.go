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
//
// Its metadata follows TL2's discipline (see DESIGN.md, "LibTM object
// metadata"): the four words are atomic, a reader only loads them, and
// a writer owns them from taking owner to the store that clears it. The
// mutex and the reader registry exist for visible readers only;
// invisible-read modes never touch them.
type Obj struct {
	_     noCopy
	owner atomic.Uint64 // instance holding the write lock (0 = free)
	ver   atomic.Uint64 // committed writes to this object
	last  atomic.Uint64 // instance of the latest committed writer
	val   atomic.Int64

	// mu guards readers: registration, the writer-side resolution of
	// registered readers and their dooming. In VisibleReads mode every
	// write-lock acquisition happens under mu too, so a registration
	// and a lock never interleave.
	mu      sync.Mutex
	readers map[*Tx]uint64 // visible readers → their instance; nil until the first
}

// NewObj returns an Obj initialized to x.
func NewObj(x int64) *Obj {
	o := &Obj{}
	o.val.Store(x)
	return o
}

// NewFloatObj returns an Obj initialized to the bit pattern of f.
func NewFloatObj(f float64) *Obj {
	return NewObj(int64(math.Float64bits(f)))
}

// Value loads the committed value non-transactionally (for setup and
// post-run verification).
func (o *Obj) Value() int64 { return o.val.Load() }

// FloatValue loads the committed value as a float64.
func (o *Obj) FloatValue() float64 {
	return math.Float64frombits(uint64(o.Value()))
}

// Store sets the value non-transactionally (setup only).
func (o *Obj) Store(x int64) { o.val.Store(x) }

// StoreFloat sets a float64 non-transactionally (setup only).
func (o *Obj) StoreFloat(f float64) {
	o.Store(int64(math.Float64bits(f)))
}

// publish installs a committed value under the held write lock and
// releases it: value, then writer, then version, then owner. A reader
// that sees the new version therefore finds this writer (or a later
// one) in last, and a validator that sees owner clear sees the version
// already moved. ver and last exist for invisible-read validation
// alone, so track is false where nothing validates — visible-read
// modes — and under the SkipVersionBump mutation, which is what leaves
// the version where it was.
func (o *Obj) publish(x int64, inst uint64, track bool) {
	o.val.Store(x)
	if track {
		o.last.Store(inst)
		o.ver.Add(1)
	}
	o.owner.Store(0)
}

// doomReaders aborts every registered visible reader other than tx,
// naming tx's instance as the killer, and empties the registry. Caller
// holds o.mu.
func (o *Obj) doomReaders(tx *Tx) {
	for r := range o.readers {
		if r == tx {
			continue
		}
		r.killer.Store(tx.instance)
		r.doomed.Store(true)
		delete(o.readers, r)
	}
}

// ErrRetryLimit is returned when Options.MaxRetries is exceeded.
var ErrRetryLimit = errors.New("libtm: transaction exceeded retry limit")

// ErrDeadline is returned by AtomicCtx when the context expires before
// the transaction commits; the returned error wraps both ErrDeadline
// and the context's own error.
var ErrDeadline = errors.New("libtm: transaction deadline exceeded")

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
	var v int64
	switch {
	case tx.irrev:
		// Escalated: reads take the write lock (two-phase locking), so
		// no invisible read can be invalidated and no visible-reader
		// registration can be doomed — the attempt cannot abort.
		tx.lockIrrev(o)
		v = o.val.Load()
	case tx.stm.opts.Mode.Reads == VisibleReads:
		v = tx.readVisible(o)
	default:
		v = tx.readInvisible(o)
	}
	tx.monRead(o, v)
	return v
}

// readInvisible takes a (version, value) snapshot of o with loads only
// and records it for commit-time validation. The owner re-check after
// the value load is what makes the pair consistent — a writer stores
// the value before it moves the version, so only a free lock on both
// sides of an unchanged version vouches for the value — and it aborts
// at the read itself, naming the holder, when a writer locked o while
// we read. A version that moved with the lock free again means a writer
// published in between; read again.
func (tx *Tx) readInvisible(o *Obj) int64 {
	for {
		if w := o.owner.Load(); w != 0 && w != tx.instance {
			tx.abort(w)
		}
		ver := o.ver.Load()
		v := o.val.Load()
		if w := o.owner.Load(); w != 0 && w != tx.instance {
			tx.abort(w)
		}
		if o.ver.Load() == ver {
			tx.invReads = append(tx.invReads, readEntry{o, ver})
			return v
		}
	}
}

// readVisible registers tx as a reader of o under o's mutex, so a
// writer resolving readers (lockForWrite, lockIrrev) sees it. Every
// write-lock acquisition in this mode holds the same mutex, so a free
// owner here stays free until the value is loaded.
func (tx *Tx) readVisible(o *Obj) int64 {
	o.mu.Lock()
	if w := o.owner.Load(); w != 0 && w != tx.instance {
		o.mu.Unlock()
		tx.abort(w)
	}
	if o.readers == nil {
		o.readers = make(map[*Tx]uint64)
	}
	n := len(o.readers)
	o.readers[tx] = tx.instance
	if len(o.readers) > n {
		tx.visReads = append(tx.visReads, o) // first registration
	}
	v := o.val.Load()
	o.mu.Unlock()
	return v
}

// Write transactionally stores x into o. In encounter mode the write
// lock is taken now; in commit mode the write is buffered.
func (tx *Tx) Write(o *Obj, x int64) {
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
	if tx.stm.opts.Mode.Reads == InvisibleReads {
		// No reader registers in this mode: the lock is one CAS. A CAS
		// lost to a writer that has already released again is no
		// conflict, so it is retried.
		for {
			w := o.owner.Load()
			if w == tx.instance {
				return // already ours
			}
			if w != 0 {
				tx.abort(w) // writer-writer: newcomer yields
			}
			if o.owner.CompareAndSwap(0, tx.instance) {
				tx.locked = append(tx.locked, o)
				return
			}
		}
	}
	for spin := 0; ; spin++ {
		o.mu.Lock()
		w := o.owner.Load()
		if w == tx.instance {
			o.mu.Unlock()
			return // already ours
		}
		if w != 0 {
			o.mu.Unlock()
			tx.abort(w) // writer-writer: newcomer yields
		}
		if !o.hasOtherReaders(tx) || tx.stm.opts.Mutate.SkipReaderWait {
			tx.ownAndUnlock(o)
			return
		}
		switch tx.stm.opts.Mode.Resolution {
		case AbortReaders:
			o.doomReaders(tx)
			tx.ownAndUnlock(o)
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

// hasOtherReaders reports whether a visible reader other than tx is
// registered on o. Caller holds o.mu.
func (o *Obj) hasOtherReaders(tx *Tx) bool {
	n := len(o.readers)
	if _, mine := o.readers[tx]; mine {
		n--
	}
	return n > 0
}

// ownAndUnlock makes tx o's owner and releases o.mu, which the caller
// holds with o's owner free. Under the mutex nobody else can be taking
// the lock, so a plain store does.
func (tx *Tx) ownAndUnlock(o *Obj) {
	o.owner.Store(tx.instance)
	tx.locked = append(tx.locked, o)
	o.mu.Unlock()
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
	// Validate invisible reads: no foreign writer and the version
	// unchanged, two loads per entry. A moved version (possibly on an
	// object we hold ourselves) names the writer that published it, never
	// ourselves. The mutation knockout (oracle sensitivity harness) skips
	// this loop wholesale, committing on top of whatever snapshot the
	// reads saw.
	if !tx.stm.opts.Mutate.SkipReadValidation {
		for _, r := range tx.invReads {
			if w := r.o.owner.Load(); w != 0 && w != tx.instance {
				tx.abort(w) // a foreign writer holds the lock
			}
			if r.o.ver.Load() != r.ver {
				tx.abort(r.o.last.Load())
			}
		}
	}
	// Validation passed and every write lock is held: an injected
	// stall here starves rivals blocked on those locks — the
	// worst-case committer.
	if inj := tx.stm.opts.Inject; inj != nil {
		inj.Sleep(fault.LockReleaseDelay)
	}
	// Publish writes, releasing their locks. The SkipVersionBump
	// mutation (oracle sensitivity harness) publishes the value without
	// moving the version, blinding concurrent invisible-read validation.
	track := tx.stm.opts.Mode.Reads == InvisibleReads && !tx.stm.opts.Mutate.SkipVersionBump
	for _, w := range tx.writes {
		w.o.publish(w.val, tx.instance, track)
	}
	tx.locked = tx.locked[:0]
	tx.releaseVisibleReads()
}

// cleanupAfterAbort releases everything a non-committing attempt still
// holds — write locks and visible-reader registrations. It is the
// policy's Release: the driver runs it after a conflict abort, a user
// error, a trapped read-only violation and a panic out of the body.
func (tx *Tx) cleanupAfterAbort() {
	tx.releaseLocks()
	tx.releaseVisibleReads()
}

// releaseLocks drops the write locks tx still owns without publishing.
func (tx *Tx) releaseLocks() {
	for _, o := range tx.locked {
		o.owner.CompareAndSwap(tx.instance, 0)
	}
	tx.locked = tx.locked[:0]
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
