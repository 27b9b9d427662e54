package libtm

// Irrevocable serial fallback: the txn.Irrevocable attempt the driver
// runs after a call exhausts its escalation threshold, holding the
// global token (txn.Token), with every access taking the object's
// write lock at encounter time (two-phase locking). Regular committers
// quiesce on the token before acquiring their *first* write lock and
// never block on locks otherwise (writer-writer conflicts abort the
// newcomer), so the escalated transaction's lock acquisition always
// terminates and the attempt is guaranteed to commit.

// lockIrrev acquires o's write lock for an escalated transaction
// (idempotently). Foreign writers finish in bounded time — they never
// block while holding locks — so the spin terminates; foreign visible
// readers are doomed unconditionally (AbortReaders semantics regardless
// of mode), because an irrevocable transaction must not wait on them.
func (tx *Tx) lockIrrev(o *Obj) {
	for {
		o.mu.Lock()
		if o.writerTx == tx {
			o.mu.Unlock()
			return
		}
		if o.writerInst != 0 {
			o.mu.Unlock()
			tx.stm.yield()
			continue
		}
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
	}
}

// commitIrrev publishes the buffered stores under the held locks and
// releases everything. No validation is needed: escalated reads took
// write locks, so no snapshot can have been invalidated, and the fault
// hooks are intentionally not consulted — an injected CommitAbort must
// not be able to abort a guaranteed-to-commit transaction.
func (tx *Tx) commitIrrev() {
	for _, w := range tx.writes {
		w.o.mu.Lock()
		w.o.val = w.val
		w.o.version++
		w.o.lastWriter = tx.instance
		w.o.writerInst = 0
		w.o.writerTx = nil
		w.o.mu.Unlock()
	}
	// Release read-only locks without a version bump (values unchanged,
	// so concurrent invisible-read validation is undisturbed).
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
