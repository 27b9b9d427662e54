package tl2

import (
	"runtime"
	"sync/atomic"
	"time"
)

// ContentionManager decides what a transaction does when it collides
// with a lock holder: abort immediately (the stock TL2 behaviour), or
// wait and retry the access in the hope the holder finishes. The
// paper's related work (Section IX) discusses classic managers —
// Polite, Karma, Greedy — that reduce aborts by arbitrating conflicts;
// the paper argues they trade fairness for throughput and thereby
// *increase* variance, which the contention-manager ablation benchmark
// measures against guided execution.
//
// OnConflict is called with the victim transaction and the conflicting
// Var; it returns true to retry the access (after any waiting it chose
// to do) or false to abort the attempt. Implementations must be safe
// for concurrent use.
type ContentionManager interface {
	// OnConflict reports a collision of tx with the current holder of
	// v's lock. Return true to re-attempt the access, false to abort.
	OnConflict(tx *Tx, v *Var, attempt int) bool
	// OnCommit lets managers account completed work (Karma resets
	// priority, for example).
	OnCommit(tx *Tx)
	// OnAbort lets managers account failed attempts.
	OnAbort(tx *Tx)
}

// SetContentionManager installs a manager consulted on lock conflicts
// during reads and commit-time lock acquisition. Passing nil restores
// immediate-abort behaviour. Install before running transactions.
func (s *STM) SetContentionManager(cm ContentionManager) {
	if cm == nil {
		s.cm.Store(nil)
		return
	}
	s.cm.Store(&cmBox{cm})
}

type cmBox struct{ cm ContentionManager }

// consultCM gives the installed manager a chance to wait-and-retry.
// Returns true if the caller should retry the access.
func (tx *Tx) consultCM(v *Var, attempt int) bool {
	b := tx.stm.cm.Load()
	if b == nil {
		return false
	}
	return b.cm.OnConflict(tx, v, attempt)
}

// Work returns a size measure of the attempt so far (reads + writes),
// the "investment" Karma-style managers arbitrate on.
func (tx *Tx) Work() int { return len(tx.reads) + len(tx.writes) }

// ---------------------------------------------------------------------------
// Polite: exponential randomized backoff before retrying, aborting
// after a bounded number of collisions (Herlihy et al., PODC'03).

// Polite is the classic backoff manager.
type Polite struct {
	// MaxAttempts bounds retries per access; ≤0 means 8.
	MaxAttempts int
	// BaseDelay is the first backoff; ≤0 means 1µs.
	BaseDelay time.Duration
}

var _ ContentionManager = (*Polite)(nil)

// OnConflict implements ContentionManager.
func (p *Polite) OnConflict(_ *Tx, _ *Var, attempt int) bool {
	max := p.MaxAttempts
	if max <= 0 {
		max = 8
	}
	if attempt >= max {
		return false
	}
	base := p.BaseDelay
	if base <= 0 {
		base = time.Microsecond
	}
	shift := attempt
	if shift > 6 {
		shift = 6
	}
	d := base << uint(shift)
	if d < 10*time.Microsecond {
		for i := 0; i <= shift; i++ {
			runtime.Gosched()
		}
		return true
	}
	time.Sleep(d)
	return true
}

// OnCommit implements ContentionManager.
func (p *Polite) OnCommit(*Tx) {}

// OnAbort implements ContentionManager.
func (p *Polite) OnAbort(*Tx) {}

// ---------------------------------------------------------------------------
// Karma: priority equals accumulated work (accesses) across attempts of
// the same Atomic call; a transaction yields to richer holders and
// barges past poorer ones by waiting them out (Scherer & Scott,
// PODC'05). Without visible-holder introspection a TL2 victim cannot
// abort the holder, so "barging" means bounded waiting proportional to
// the priority difference.

// Karma arbitrates by accumulated transactional work.
type Karma struct {
	// MaxWaits bounds total waits per access; ≤0 means 16.
	MaxWaits int
	// karma accumulates work across attempts, per thread slot (folded
	// modulo the table size; collisions only blur priorities).
	karma [256]atomic.Int64
}

var _ ContentionManager = (*Karma)(nil)

func (k *Karma) slot(tx *Tx) *atomic.Int64 {
	return &k.karma[tx.pair.Thread&255]
}

// OnConflict implements ContentionManager.
func (k *Karma) OnConflict(tx *Tx, _ *Var, attempt int) bool {
	max := k.MaxWaits
	if max <= 0 {
		max = 16
	}
	// Current priority: accumulated karma plus this attempt's work.
	prio := k.slot(tx).Load() + int64(tx.Work())
	if attempt >= max {
		return false
	}
	// Wait a little, longer the poorer we are (rich transactions barge
	// by retrying immediately).
	if prio < int64(attempt*8) {
		runtime.Gosched()
	}
	runtime.Gosched()
	return true
}

// OnCommit implements ContentionManager: success spends the karma.
func (k *Karma) OnCommit(tx *Tx) {
	k.slot(tx).Store(0)
}

// OnAbort implements ContentionManager: failed work accrues as karma so
// starved transactions eventually win.
func (k *Karma) OnAbort(tx *Tx) {
	k.slot(tx).Add(int64(tx.Work()) + 1)
}

// ---------------------------------------------------------------------------
// Greedy: the transaction with the older timestamp (smaller instance
// number of its first attempt) has priority; younger transactions wait
// for older ones and abort if waiting does not clear the conflict
// (Guerraoui, Herlihy, Pochon, PODC'05).

// Greedy arbitrates by first-attempt age.
type Greedy struct {
	// MaxWaits bounds waits per access; ≤0 means 32.
	MaxWaits int
	// birth records each thread's current Atomic call's first instance
	// (folded modulo the table size).
	birth [256]atomic.Uint64
}

var _ ContentionManager = (*Greedy)(nil)

// OnConflict implements ContentionManager.
func (g *Greedy) OnConflict(tx *Tx, v *Var, attempt int) bool {
	max := g.MaxWaits
	if max <= 0 {
		max = 32
	}
	b := &g.birth[tx.pair.Thread&255]
	if b.Load() == 0 {
		b.Store(tx.instance)
	}
	if attempt >= max {
		return false
	}
	// Older (smaller birth) waits persistently — it will win eventually;
	// younger gives the holder one yield then aborts quickly.
	holderInst := v.who.Load()
	if b.Load() < holderInst {
		runtime.Gosched()
		return true
	}
	if attempt >= 2 {
		return false
	}
	runtime.Gosched()
	return true
}

// OnCommit implements ContentionManager.
func (g *Greedy) OnCommit(tx *Tx) {
	g.birth[tx.pair.Thread&255].Store(0)
}

// OnAbort implements ContentionManager: the birth timestamp is kept so
// age priority persists across retries of the same Atomic call.
func (g *Greedy) OnAbort(*Tx) {}
