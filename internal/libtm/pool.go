package libtm

import (
	"sync"

	"gstm/internal/tts"
)

// txPool recycles transaction descriptors across Atomic calls. A LibTM
// RMW used to cost four allocations (the descriptor plus its
// read/write/locked slices); with pooling and capacity-retaining
// truncation the steady state is zero, pinned by the alloc-free tests in
// bench_scale_test.go.
//
// Pooling is safe for writing transactions too, because no object keeps
// the descriptor past the Atomic call. A write lock names its holder by
// instance number (Obj's lock word), never by pointer, and commit,
// commitIrrev and cleanupAfterAbort clear it on every exit (the driver's
// release rule, package txn, runs cleanupAfterAbort on every exit that
// does not commit). The one place an object holds the pointer is a visible-reader
// registration in o.readers, and that is also the only path to a doom: a
// writer dooms exactly the descriptors it finds registered, under o.mu,
// and every registration is deleted under the same mutex before the call
// returns — so no stale doom can reach a recycled Tx. A panic out of the
// body is released like any other exit but never recycled: the body may
// have leaked the pointer.
var txPool = sync.Pool{New: func() any { return new(Tx) }}

// putTx scrubs a descriptor and returns it to the pool. Slices are
// truncated, not nilled, so their capacity survives reuse; every
// identity and per-call field is cleared so a recycled descriptor can
// never leak a prior transaction's read/write entries, doom state or
// STM binding (the pool-hygiene property test pins this).
func putTx(tx *Tx) {
	tx.stm = nil
	tx.done = nil
	tx.mon = nil
	tx.irrev = false
	tx.instance = 0
	tx.pair = tts.Pair{}
	tx.ops = 0
	tx.yielding = false
	tx.invReads = tx.invReads[:0]
	tx.writes = tx.writes[:0]
	tx.visReads = tx.visReads[:0]
	tx.locked = tx.locked[:0]
	// A doom reaches only registered visible readers, and every
	// registration is gone before the call returns: the doom words can
	// only be set here if doomed is, so a clear pair costs one load.
	if tx.doomed.Load() {
		tx.doomed.Store(false)
		tx.killer.Store(0)
	}
	txPool.Put(tx)
}
