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
// Only visible-read modes register readers, so only they take o's
// mutex; elsewhere the lock is one CAS.
func (tx *Tx) lockIrrev(o *Obj) {
	vis := tx.stm.opts.Mode.Reads == VisibleReads
	for {
		w := o.owner.Load()
		if w == tx.instance {
			return
		}
		if w != 0 {
			tx.stm.yield()
			continue
		}
		if !vis {
			if o.owner.CompareAndSwap(0, tx.instance) {
				tx.locked = append(tx.locked, o)
				return
			}
			continue
		}
		o.mu.Lock()
		if o.owner.Load() == 0 {
			o.doomReaders(tx)
			tx.ownAndUnlock(o)
			return
		}
		o.mu.Unlock()
	}
}

// commitIrrev publishes the buffered stores under the held locks and
// releases everything. No validation is needed: escalated reads took
// write locks, so no snapshot can have been invalidated, and the fault
// hooks are intentionally not consulted — an injected CommitAbort must
// not be able to abort a guaranteed-to-commit transaction.
func (tx *Tx) commitIrrev() {
	track := tx.stm.opts.Mode.Reads == InvisibleReads
	for _, w := range tx.writes {
		w.o.publish(w.val, tx.instance, track)
	}
	// Release read-only locks without a version bump (values unchanged,
	// so concurrent invisible-read validation is undisturbed); the
	// written objects are already released, and releaseLocks leaves an
	// object another writer has since locked alone.
	tx.releaseLocks()
	tx.releaseVisibleReads()
}
