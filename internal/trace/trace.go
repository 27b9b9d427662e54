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
	"sync/atomic"
	"unsafe"

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
// Events go to one of collectorShards shards, picked by the event's
// thread ID modulo the shard count; each shard has its own mutex and
// sits on its own 128-byte block, so threads with distinct IDs below
// collectorShards never share a lock or a line, and aliasing IDs only
// share a lock. A shard keeps its commits and its aborts in two logs of
// fixed-size chunks: a log grows by one chunk and never copies what it
// holds. Every commit takes a stamp from one counter while it holds its
// shard's lock, so each shard's commit log is sorted by stamp and
// Sequence merges the shards in stamp order. Aborts carry no stamp:
// Build attaches an abort to its killer's commit by instance and sorts
// each state's aborts, so their order never matters.
type Collector struct {
	shards [collectorShards]shard
	_      [128]byte
	stamp  atomic.Uint64
	_      [120]byte
}

const (
	// collectorShards is the number of log shards; a power of two, so
	// picking one is a mask.
	collectorShards = 16
	// chunkEvents is the number of records in one log chunk.
	chunkEvents = 4096
)

// shard is one lock's share of the logs, padded to 128 bytes so no two
// shards share a line or an adjacent-line prefetch pair.
type shard struct {
	mu      sync.Mutex
	commits chunkLog[stamped]
	aborts  chunkLog[Event]
	_       [128 - unsafe.Sizeof(sync.Mutex{}) - unsafe.Sizeof(chunkLog[stamped]{}) - unsafe.Sizeof(chunkLog[Event]{})]byte
}

// stamped is a commit event with its place in the commit order.
type stamped struct {
	stamp uint64
	ev    Event
}

// chunkLog is an append-only log in chunks of chunkEvents records.
type chunkLog[T any] struct {
	full []*[chunkEvents]T // filled chunks, in order
	tail *[chunkEvents]T   // the chunk being filled, nil before the first record
	n    int               // records in tail
}

func (l *chunkLog[T]) add(v T) {
	if l.n == chunkEvents || l.tail == nil {
		if l.tail != nil {
			l.full = append(l.full, l.tail)
		}
		l.tail = new([chunkEvents]T)
		l.n = 0
	}
	l.tail[l.n] = v
	l.n++
}

// len returns the number of records in the log.
func (l *chunkLog[T]) len() int { return len(l.full)*chunkEvents + l.n }

// chunks returns the log's records as slices, one per chunk, in order;
// they alias the log.
func (l *chunkLog[T]) chunks() [][]T {
	out := make([][]T, 0, len(l.full)+1)
	for _, c := range l.full {
		out = append(out, c[:])
	}
	if l.n > 0 {
		out = append(out, l.tail[:l.n])
	}
	return out
}

var _ Tracer = (*Collector)(nil)

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{}
}

func (c *Collector) shard(p tts.Pair) *shard {
	return &c.shards[p.Thread%collectorShards]
}

// OnCommit implements Tracer.
func (c *Collector) OnCommit(instance uint64, p tts.Pair) {
	s := c.shard(p)
	s.mu.Lock()
	s.commits.add(stamped{c.stamp.Add(1), Event{Inst: instance, Pair: p, Kind: EventCommit}})
	s.mu.Unlock()
}

// OnAbort implements Tracer.
func (c *Collector) OnAbort(p tts.Pair, killer uint64) {
	s := c.shard(p)
	s.mu.Lock()
	s.aborts.add(Event{Inst: killer, Pair: p, Kind: EventAbort})
	s.mu.Unlock()
}

// lockAll takes every shard's lock, in index order; unlockAll releases
// them.
func (c *Collector) lockAll() {
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
}

func (c *Collector) unlockAll() {
	for i := range c.shards {
		c.shards[i].mu.Unlock()
	}
}

// Reset discards all recorded events.
func (c *Collector) Reset() {
	c.lockAll()
	defer c.unlockAll()
	for i := range c.shards {
		s := &c.shards[i]
		s.commits = chunkLog[stamped]{}
		s.aborts = chunkLog[Event]{}
	}
}

// Counts returns the number of recorded commit and abort events.
func (c *Collector) Counts() (commits, aborts int) {
	c.lockAll()
	defer c.unlockAll()
	for i := range c.shards {
		commits += c.shards[i].commits.len()
		aborts += c.shards[i].aborts.len()
	}
	return commits, aborts
}

// AbortCountByThread returns, for each thread ID, how many aborts that
// thread experienced. This feeds the per-thread abort histograms of
// Figures 5, 7 and 8.
func (c *Collector) AbortCountByThread() map[uint16]int {
	c.lockAll()
	defer c.unlockAll()
	out := make(map[uint16]int)
	for i := range c.shards {
		for _, chunk := range c.shards[i].aborts.chunks() {
			for _, a := range chunk {
				out[a.Pair.Thread]++
			}
		}
	}
	return out
}

// Sequence groups the recorded events into the ordered transaction
// sequence (see Build): the commits of all shards merged in stamp
// order, then every shard's aborts. The merge is a k-way merge of logs
// that are each sorted already.
func (c *Collector) Sequence() (seq []tts.State, unattributed int) {
	c.lockAll()
	defer c.unlockAll()
	type cursor struct {
		chunks [][]stamped
		at     []stamped // unread records of chunks[0]
	}
	var heads []cursor
	commits := 0
	logs := [][]Event{nil}
	for i := range c.shards {
		s := &c.shards[i]
		if n := s.commits.len(); n > 0 {
			commits += n
			chunks := s.commits.chunks()
			heads = append(heads, cursor{chunks[1:], chunks[0]})
		}
		logs = append(logs, s.aborts.chunks()...)
	}
	merged := make([]Event, 0, commits)
	for len(heads) > 0 {
		lo := 0
		for i := 1; i < len(heads); i++ {
			if heads[i].at[0].stamp < heads[lo].at[0].stamp {
				lo = i
			}
		}
		h := &heads[lo]
		merged = append(merged, h.at[0].ev)
		h.at = h.at[1:]
		if len(h.at) == 0 {
			if len(h.chunks) == 0 {
				heads = append(heads[:lo], heads[lo+1:]...)
				continue
			}
			h.at, h.chunks = h.chunks[0], h.chunks[1:]
		}
	}
	logs[0] = merged
	return Build(logs...)
}

// Build groups events into the ordered transaction sequence. The events
// are logs read one after the other as a single slice; a caller with one
// slice passes just that. Commits anchor states in order, and each abort
// attaches to the commit of its killer instance wherever that commit
// sits (the last one, should an instance commit twice). Aborts whose
// killer has no commit in the events (the killer itself aborted, its
// commit lies outside them, or the killer is unknown, 0) are left out of
// the sequence and counted in the second return value, matching the
// paper's definition where a state is always anchored by a commit.
// Every state is canonicalized. Build is the one place a transaction
// sequence is grouped: the Collector's profile and the online learner's
// epochs both go through it.
//
// Only the instances some abort names are indexed, so the index is
// sized by the aborts, not by the commits.
func Build(logs ...[]Event) (seq []tts.State, unattributed int) {
	commits, aborts := 0, 0
	for _, events := range logs {
		for _, ev := range events {
			if ev.Kind == EventCommit {
				commits++
			} else if ev.Kind == EventAbort {
				aborts++
			}
		}
	}
	// killer maps a named killer instance to its commit's index in seq,
	// -1 while none is seen.
	killer := make(map[uint64]int, aborts)
	for _, events := range logs {
		for _, ev := range events {
			if ev.Kind == EventAbort && ev.Inst != 0 {
				killer[ev.Inst] = -1
			}
		}
	}
	seq = make([]tts.State, 0, commits)
	for _, events := range logs {
		for _, ev := range events {
			if ev.Kind != EventCommit {
				continue
			}
			if len(killer) > 0 {
				if _, ok := killer[ev.Inst]; ok {
					killer[ev.Inst] = len(seq)
				}
			}
			seq = append(seq, tts.State{Commit: ev.Pair})
		}
	}
	for _, events := range logs {
		for _, ev := range events {
			if ev.Kind != EventAbort {
				continue
			}
			if i, ok := killer[ev.Inst]; ok && i >= 0 {
				seq[i].Aborts = append(seq[i].Aborts, ev.Pair)
			} else {
				unattributed++
			}
		}
	}
	for i := range seq {
		if len(seq[i].Aborts) > 1 {
			seq[i].Canonicalize()
		}
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
