package tl2

import (
	"context"

	"gstm/internal/tts"
)

// Irrevocable transactions (Sreeram & Pande, IPDPS'12 — the paper's
// reference [23]): a transaction that is guaranteed to commit on its
// first attempt, so it may safely perform externally visible actions
// (I/O, syscalls). The implementation is single-token two-phase
// locking layered on the TL2 word metadata:
//
//   - only one irrevocable transaction runs at a time (the driver's
//     global token, txn.Token, which also states the deadlock-freedom
//     rule regular committers follow against it);
//   - every Var it touches — reads included — is write-locked at
//     encounter time by spinning until the lock frees. Regular TL2
//     transactions never block on locks (they abort and retry), so the
//     spin cannot deadlock;
//   - writes go straight to the Var under the lock; the commit step
//     just publishes new versions and releases.
//
// Regular transactions that raced an irrevocable one abort on its locks
// or versions and retry, exactly as against any committer. The paper's
// related work cautions that irrevocability is an I/O mechanism, not a
// variance tool — using it to suppress rollbacks serializes execution
// (measurable with the ablation benchmarks).

// IrrevTx is the access handle inside AtomicIrrevocable. It intentionally
// mirrors Tx's Read/Write surface but has no abort path.
type IrrevTx struct {
	stm      *STM
	instance uint64
	locked   []*Var
	prevWho  []uint64
	mon      Monitor
}

// lockVar spin-acquires v's write lock (idempotently per transaction).
func (tx *IrrevTx) lockVar(v *Var) {
	if v.who.Load() == tx.instance {
		// Already ours — confirm, since who can be stale for unlocked
		// vars; the locked list is authoritative.
		for _, o := range tx.locked {
			if o == v {
				return
			}
		}
	}
	for {
		l := v.lock.Load()
		if l&lockedBit == 0 && v.lock.CompareAndSwap(l, l|lockedBit) {
			tx.prevWho = append(tx.prevWho, v.who.Load())
			v.who.Store(tx.instance)
			tx.locked = append(tx.locked, v)
			return
		}
		tx.stm.yield()
	}
}

// Read returns v's value, locking it first (two-phase locking: the
// value cannot change until the irrevocable transaction finishes).
func (tx *IrrevTx) Read(v *Var) int64 {
	tx.lockVar(v)
	x := v.val.Load()
	if tx.mon != nil {
		tx.mon.OnTxRead(tx.instance, v, x)
	}
	return x
}

// Write stores x into v in place, under the transaction's lock.
func (tx *IrrevTx) Write(v *Var, x int64) {
	tx.lockVar(v)
	v.val.Store(x)
	if tx.mon != nil {
		tx.mon.OnTxWrite(tx.instance, v, x)
	}
}

// ReadFloat reads v as a float64.
func (tx *IrrevTx) ReadFloat(v *Var) float64 {
	return floatFromBits(tx.Read(v))
}

// WriteFloat writes f into v.
func (tx *IrrevTx) WriteFloat(v *Var, f float64) {
	tx.Write(v, floatToBits(f))
}

// AtomicIrrevocable runs fn as an irrevocable transaction: fn executes
// exactly once and its writes are never rolled back, so it may perform
// side effects. A non-nil error from fn is returned as-is — but note
// the writes performed before the error stand (irrevocability means no
// rollback; callers needing all-or-nothing must use Atomic).
func (s *STM) AtomicIrrevocable(thread, txID uint16, fn func(*IrrevTx) error) error {
	// Acquire with a background context never returns false; routing
	// through it (rather than a mutex) keeps the wait visible to a
	// cooperative scheduler via Options.Yield.
	s.Irrev.Acquire(context.Background())
	defer s.Irrev.Release()

	pair := tts.Pair{Tx: txID, Thread: thread}
	tx := &IrrevTx{stm: s, instance: s.NextInstance(), mon: s.Monitor()}
	if tx.mon != nil {
		tx.mon.OnTxBegin(tx.instance, pair)
	}
	err := fn(tx)

	// Publish: bump versions and release every lock. Regular readers
	// that observed pre-lock values fail validation against the new
	// versions, as with any commit.
	if len(tx.locked) > 0 {
		newLock := s.clock.Add(1) << 1
		for _, v := range tx.locked {
			v.lock.Store(newLock)
		}
	}
	tx.locked = nil

	if err == nil {
		s.NoteCommit(tx.instance, pair)
	}
	if tx.mon != nil {
		// Irrevocable writes stand even on error (no rollback), so the
		// history records a commit either way.
		tx.mon.OnTxCommit(tx.instance)
	}
	return err
}

// ---------------------------------------------------------------------------
// Escalated execution: the txn.Irrevocable attempt the driver runs
// after a call exhausts its escalation threshold. Unlike
// AtomicIrrevocable, it runs the caller's ordinary func(*Tx) body —
// reads and writes lock Vars at encounter time (Tx.irrev), stores stay
// buffered so a user error still rolls back, and publish bumps the
// clock once. Holding the token plus quiesce-before-locking on the
// regular commit path makes the body guaranteed to commit.

// lockIrrev spin-acquires v's write lock for an escalated transaction
// (idempotently), saving the pre-lock word and owner for publish or
// rollback. Regular transactions never block on locks — they abort and
// retry — and committers quiesce before locking, so the spin only ever
// waits out an in-flight commit's writeback.
func (tx *Tx) lockIrrev(v *Var) {
	if v.who.Load() == tx.instance {
		// who can be stale on unlocked vars; the ilocked list is
		// authoritative.
		for _, o := range tx.ilocked {
			if o == v {
				return
			}
		}
	}
	for {
		l := v.lock.Load()
		if l&lockedBit == 0 && v.lock.CompareAndSwap(l, l|lockedBit) {
			tx.iprev = append(tx.iprev, l)
			tx.iprevWho = append(tx.iprevWho, v.who.Load())
			v.who.Store(tx.instance)
			tx.ilocked = append(tx.ilocked, v)
			return
		}
		tx.stm.yield()
	}
}

// publishIrrev writes back the buffered stores under the held locks,
// stamps written Vars with one new clock version, and restores
// read-only Vars' pre-lock words (their values never changed).
func (tx *Tx) publishIrrev() {
	var newLock uint64
	if len(tx.writes) > 0 {
		for i := range tx.writes {
			w := &tx.writes[i]
			w.v.val.Store(w.val)
		}
		newLock = tx.stm.clock.Add(1) << 1
	}
	for i, v := range tx.ilocked {
		if _, ok := tx.lookupWrite(v); ok {
			v.lock.Store(newLock)
		} else {
			v.who.Store(tx.iprevWho[i])
			v.lock.Store(tx.iprev[i])
		}
	}
	tx.ilocked = tx.ilocked[:0]
	tx.iprev = tx.iprev[:0]
	tx.iprevWho = tx.iprevWho[:0]
}

// rollbackIrrev releases every encounter-time lock untouched (stores
// were buffered, so restoring the pre-lock words undoes everything).
func (tx *Tx) rollbackIrrev() {
	for i, v := range tx.ilocked {
		v.who.Store(tx.iprevWho[i])
		v.lock.Store(tx.iprev[i])
	}
	tx.ilocked = tx.ilocked[:0]
	tx.iprev = tx.iprev[:0]
	tx.iprevWho = tx.iprevWho[:0]
}
