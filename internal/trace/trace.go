// Package trace captures the transaction sequence (Tseq) of an STM
// execution: the ordered stream of commit events, each grouped with the
// aborts it caused. The grouped tuples are thread transactional states
// (tts.State); the ordered list of them is what model generation
// consumes (paper Section II-C, "Profile Execution").
//
// Attribution works by transaction *instance*: every transaction attempt
// gets a unique instance ID from the STM. A victim that aborts knows the
// instance of the attempt that killed it (the writer of the conflicting
// version, or the holder of a commit-time lock). Grouping aborts by
// killer instance reconstructs exactly the paper's tuples.
package trace

import (
	"sync"

	"gstm/internal/tts"
)

// Tracer receives raw commit/abort events from an STM. Implementations
// must be safe for concurrent use. The zero instance (0) means "killer
// unknown".
type Tracer interface {
	// OnCommit reports that transaction attempt `instance`, identified
	// as pair p (static tx ID + thread ID), committed.
	OnCommit(instance uint64, p tts.Pair)
	// OnAbort reports that an attempt running pair p aborted, killed by
	// the attempt with the given instance ID (0 if unknown).
	OnAbort(p tts.Pair, killer uint64)
}

// Nop is a Tracer that discards all events; the default for un-profiled
// runs.
type Nop struct{}

// OnCommit implements Tracer.
func (Nop) OnCommit(uint64, tts.Pair) {}

// OnAbort implements Tracer.
func (Nop) OnAbort(tts.Pair, uint64) {}

// Collector records events and groups them into the transaction
// sequence. It is safe for concurrent use by many STM threads.
//
// Commits and aborts go to two logs, each in arrival order: grouping
// needs only the order within each kind (see Sequence). One interleaved
// log, or a merged copy of the two for Build, set gstmbench's bank-hot
// up slower (EXPERIMENTS.md, "One event order for the online learner").
type Collector struct {
	mu      sync.Mutex
	commits []Event
	aborts  []Event
}

var _ Tracer = (*Collector)(nil)

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{}
}

// OnCommit implements Tracer.
func (c *Collector) OnCommit(instance uint64, p tts.Pair) {
	c.mu.Lock()
	c.commits = append(c.commits, Event{Inst: instance, Pair: p, Kind: EventCommit})
	c.mu.Unlock()
}

// OnAbort implements Tracer.
func (c *Collector) OnAbort(p tts.Pair, killer uint64) {
	c.mu.Lock()
	c.aborts = append(c.aborts, Event{Inst: killer, Pair: p, Kind: EventAbort})
	c.mu.Unlock()
}

// Reset discards all recorded events.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.commits = nil
	c.aborts = nil
	c.mu.Unlock()
}

// Counts returns the number of recorded commit and abort events.
func (c *Collector) Counts() (commits, aborts int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.commits), len(c.aborts)
}

// AbortCountByThread returns, for each thread ID, how many aborts that
// thread experienced. This feeds the per-thread abort histograms of
// Figures 5, 7 and 8.
func (c *Collector) AbortCountByThread() map[uint16]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint16]int)
	for _, a := range c.aborts {
		out[a.Pair.Thread]++
	}
	return out
}

// Sequence groups the recorded events into the ordered transaction
// sequence (see Build). Build's grouping depends only on the order
// within each kind, so the commit log followed by the abort log groups
// exactly as the arrival order would.
func (c *Collector) Sequence() (seq []tts.State, unattributed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Build(c.commits, c.aborts)
}

// Build groups events into the ordered transaction sequence. The events
// are logs read one after the other as a single slice; a caller with one
// slice passes just that. Commits anchor states in order, and each abort
// attaches to the commit of its killer instance wherever that commit
// sits. Aborts whose killer has no commit in the events (the killer
// itself aborted, its commit lies outside them, or the killer is
// unknown, 0) are left out of the sequence and counted in the second
// return value, matching the paper's definition where a state is always
// anchored by a commit. Every state is canonicalized. Build is the one
// place a transaction sequence is grouped: the Collector's profile and
// the online learner's epochs both go through it.
func Build(logs ...[]Event) (seq []tts.State, unattributed int) {
	commits := 0
	for _, events := range logs {
		for _, ev := range events {
			if ev.Kind == EventCommit {
				commits++
			}
		}
	}
	byInstance := make(map[uint64]int, commits)
	seq = make([]tts.State, 0, commits)
	for _, events := range logs {
		for _, ev := range events {
			if ev.Kind == EventCommit {
				byInstance[ev.Inst] = len(seq)
				seq = append(seq, tts.State{Commit: ev.Pair})
			}
		}
	}
	for _, events := range logs {
		for _, ev := range events {
			if ev.Kind != EventAbort {
				continue
			}
			if i, ok := byInstance[ev.Inst]; ok && ev.Inst != 0 {
				seq[i].Aborts = append(seq[i].Aborts, ev.Pair)
			} else {
				unattributed++
			}
		}
	}
	for i := range seq {
		seq[i].Canonicalize()
	}
	return seq, unattributed
}

// Keys returns the canonical key of every state in the sequence, in
// order. DistinctStates over the keys of an execution is the paper's
// non-determinism measure.
func Keys(seq []tts.State) []string {
	out := make([]string, len(seq))
	for i, s := range seq {
		out[i] = s.Key()
	}
	return out
}
