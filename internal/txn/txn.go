// Package txn is the transaction driver both STM runtimes share. The
// paper instruments TL2 and LibTM with one mechanism — a gate consulted
// at TxBegin and a tracer fed at commit/abort — and this package is
// that mechanism, written once: overload admission and shed, gate
// admission, instance numbering, monitor/tracer/counter accounting, the
// retry limit, deadlines, watchdog-driven escalation onto the
// irrevocable serial path, the latency recorder and descriptor release.
//
// A runtime (internal/tl2, internal/libtm) supplies only its conflict
// protocol, as a Policy: how an attempt begins, commits, releases what
// it holds after a failed attempt, and backs off. The driver calls the
// policy a bounded number of times per attempt and never per access —
// Read, Write and the commit protocols stay concrete code in the
// runtime packages. DESIGN.md "Transaction driver" draws the attempt
// state machine.
//
// # The release rule
//
// Every exit from an attempt that is not a commit — a conflict abort, a
// user error, and a panic that is not the driver's own — runs
// Policy.Release before anything else happens, so no write lock, reader
// registration or irrevocable token outlives the attempt that took it. The admission token follows the same rule.
// A foreign panic is then re-raised and its descriptor is dropped, not
// recycled: the body that panicked may have leaked the pointer.
package txn

import (
	"time"

	"gstm/internal/overload"
	"gstm/internal/tts"
)

// Gate is consulted at the start of every transaction attempt when
// guided execution is active. Admit blocks (per the controller's
// hold/retry/escape policy) until the pair may proceed.
type Gate interface {
	Admit(p tts.Pair)
}

// ShedGate is an optional Gate extension notified when the overload
// limiter sheds a pair before it could reach Admit. Implementations
// must only count — the transaction is already rejected, and the
// notification rides the shed fast path (no holding, no allocation).
type ShedGate interface {
	NoteShed(p tts.Pair)
}

// IrrevocableGate is an optional Gate extension consulted when a
// transaction escalates to the irrevocable serial path. Implementations
// must return without holding — an irrevocable transaction owns the
// global token, and stalling it (the gate's hold loop, or an injected
// fault.HoldStall) would stall every committer quiescing against it.
// Gates that do not implement this interface are bypassed entirely for
// escalated transactions.
type IrrevocableGate interface {
	AdmitIrrevocable(p tts.Pair)
}

// Monitor receives one event per transactional operation — the
// operation-level analogue of trace.Tracer's transaction-level events.
// It exists for the opacity oracle (internal/oracle): a recorder hooked
// in here captures per-attempt operation logs with values, from which
// the oracle searches for a legal sequential witness. loc is the
// location touched (*tl2.Var, *libtm.Obj), passed as an opaque key; val
// is the value read or written. Implementations must be safe for
// concurrent use. Events for one instance arrive in program order;
// OnTxBegin precedes and OnTxCommit/OnTxAbort follows them.
type Monitor interface {
	OnTxBegin(instance uint64, p tts.Pair)
	OnTxRead(instance uint64, loc any, val int64)
	OnTxWrite(instance uint64, loc any, val int64)
	OnTxCommit(instance uint64)
	OnTxAbort(instance uint64)
}

// Abort is the control-flow signal a runtime panics with to abandon an
// attempt on a conflict; Killer is the instance that caused it (0 when
// unknown), which the driver hands to the tracer for attribution.
type Abort struct{ Killer uint64 }

// Mode is how one attempt runs.
type Mode uint8

// Attempt modes.
const (
	// Optimistic is the runtime's ordinary protocol.
	Optimistic Mode = iota
	// Irrevocable is the escalated serial attempt: the driver holds
	// the token, every access locks at encounter time, and the attempt
	// cannot abort.
	Irrevocable
)

// Policy is the conflict protocol a runtime plugs into the driver. T is
// the runtime's transaction descriptor (*tl2.Tx, *libtm.Tx); the body
// keeps its typed func(T) error.
type Policy[T any] interface {
	// Acquire returns a descriptor bound to the runtime for one Atomic
	// call. done is the call's cancellation channel (nil = none); the
	// runtime's own spin loops observe it.
	Acquire(p tts.Pair, done <-chan struct{}) T
	// Begin readies tx for one attempt: empty sets, a fresh snapshot.
	Begin(tx T, instance uint64, mon Monitor, mode Mode)
	// Commit runs the commit protocol, panicking with Abort on
	// conflict. An Irrevocable attempt's commit cannot fail: every
	// location it touched is already locked.
	Commit(tx T)
	// Release drops everything a non-committing attempt still holds
	// (the release rule above). It must be safe after any prefix of
	// the body and of Commit.
	Release(tx T)
	// Backoff delays the retry after the attempts-th conflict abort.
	// Not called under Config.Yield, where one hook yield stands in.
	Backoff(tx T, attempts int)
	// Recycle returns the descriptor after the call. Not called when
	// the body panicked.
	Recycle(tx T)
}

// DefaultEscalateAfter is the abort threshold for irrevocable
// escalation when Config.EscalateAfter is zero. High enough that
// ordinary contention never reaches it; a transaction that aborts this
// many times in a row is starving.
const DefaultEscalateAfter = 256

// defaultYieldEvery is the access interval between scheduler yields where
// the emulation is on by default: one P, or a scheduler hook to serve.
const defaultYieldEvery = 4

// Config is the part of a runtime's Options the driver owns. Each
// runtime keeps a flat Options struct of its own (protocol fields
// beside these) and converts it in New; the semantics below are
// implemented here and nowhere else.
type Config struct {
	// ErrRetryLimit and ErrDeadline are the runtime's sentinels. They
	// stay distinct per runtime so errors.Is tells a tl2 failure from a
	// libtm one.
	ErrRetryLimit error
	ErrDeadline   error

	// MaxRetries bounds conflict retries per Atomic call; 0 means
	// unbounded.
	MaxRetries int
	// YieldEvery inserts a scheduler yield every N transactional
	// accesses and one between body and commit. On hosts with fewer
	// cores than worker threads this emulates the instruction-level
	// interleaving of critical sections that true multicore parallelism
	// produces (and that the paper's pinned-thread testbeds exhibit);
	// without it, goroutines on a single P run whole transactions
	// atomically and conflicts vanish. 0 means the default: 4 when
	// runtime.GOMAXPROCS(0) < 2 at Init or Yield is set, otherwise off —
	// with a core per thread the interleaving is real and the emulation
	// only adds a scheduler call every few accesses. Init cannot tell how
	// many threads will run; a caller that can passes YieldEveryFor(threads),
	// which keeps the emulation where threads outnumber the Ps. Negative
	// disables yielding. Init returns the resolved value; the runtimes'
	// access paths read their own copy.
	YieldEvery int
	// EscalateAfter is the abort count at which an Atomic call falls
	// back to the irrevocable serial path (guaranteed to commit). 0
	// means DefaultEscalateAfter; negative disables escalation. The
	// livelock watchdog may lower the effective threshold at runtime
	// (and arms it when disabled): see ProgressStats.
	EscalateAfter int
	// EscalateTime escalates an Atomic call that has been retrying for
	// at least this long, regardless of its abort count. 0 disables
	// time-based escalation.
	EscalateTime time.Duration
	// DefaultDeadline, when positive, bounds every plain Atomic call
	// with a context.WithTimeout of this duration (AtomicCtx callers
	// manage their own deadlines).
	DefaultDeadline time.Duration
	// WatchdogWindow is the livelock watchdog's sampling window. 0
	// means progress.DefaultWatchdogWindow; negative disables the
	// watchdog.
	WatchdogWindow time.Duration
	// Yield, when non-nil, replaces runtime.Gosched at every
	// scheduler-visible suspension point — transactional accesses
	// (YieldEvery), commit entry, lock-acquisition spins, abort backoff,
	// irrevocable token waits and quiesce. internal/sched's
	// deterministic explorer installs its cooperative-scheduler hook
	// here. Waits that would park a goroutine on a mutex become spins
	// through the hook: a parked goroutine is invisible to a
	// cooperative scheduler.
	Yield func()
	// Overload, when non-nil, attaches an adaptive admission controller
	// (internal/overload) in front of every Atomic call: in-flight
	// transactions are capped by its AIMD limit, and calls that cannot
	// be admitted in time are shed with overload.ErrShed before any
	// descriptor exists. Nil costs one pointer check per call.
	Overload *overload.Limiter
}

// threshold maps EscalateAfter to the stored effective threshold:
// 0 → default, negative → disabled (-1).
func (cfg *Config) threshold() int64 {
	switch {
	case cfg.EscalateAfter == 0:
		return DefaultEscalateAfter
	case cfg.EscalateAfter < 0:
		return -1
	default:
		return int64(cfg.EscalateAfter)
	}
}
