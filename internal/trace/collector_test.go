package trace

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"gstm/internal/race"
	"gstm/internal/tts"
)

// refBuild is the reference grouping Build must reproduce: every commit
// indexed in one map, the last commit of an instance winning, every
// state canonicalized.
func refBuild(logs ...[]Event) (seq []tts.State, unattributed int) {
	byInstance := make(map[uint64]int)
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

// randomStream is a profile-like event stream: attempts numbered from 1
// (instance 0 is left out, so some commits may use it), each committing
// or aborting. A victim names a killer drawn from every instance so far
// and a few ahead: killer 0, killers that aborted themselves, killers
// whose commit is not in the stream and killers that commit later all
// occur, several victims often share a killer, and some events are
// delivered twice, as a duplicating tracer would.
func randomStream(rng *rand.Rand, n, threads, txs int) []Event {
	evs := make([]Event, 0, n+n/8)
	for inst := uint64(1); len(evs) < n; inst++ {
		p := tts.Pair{Tx: uint16(rng.Intn(txs)), Thread: uint16(rng.Intn(threads))}
		var ev Event
		switch r := rng.Intn(20); {
		case r < 11:
			ev = Event{Inst: inst, Pair: p, Kind: EventCommit}
		case r == 11:
			ev = Event{Inst: 0, Pair: p, Kind: EventAbort}
		case r == 12:
			ev = Event{Inst: 0, Pair: p, Kind: EventCommit}
		default:
			killer := uint64(rng.Int63n(int64(inst)+8)) + 1
			ev = Event{Inst: killer, Pair: p, Kind: EventAbort}
		}
		evs = append(evs, ev)
		if rng.Intn(16) == 0 {
			evs = append(evs, ev)
		}
	}
	return evs
}

// split cuts events into up to k logs at random points.
func split(rng *rand.Rand, evs []Event, k int) [][]Event {
	var logs [][]Event
	for len(evs) > 0 && len(logs) < k-1 {
		at := rng.Intn(len(evs) + 1)
		logs = append(logs, evs[:at])
		evs = evs[at:]
	}
	return append(logs, evs)
}

// TestBuildMatchesReference: the killer-indexed Build groups every
// random multi-log stream exactly as the map over every commit does.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 300; trial++ {
		evs := randomStream(rng, 1+rng.Intn(400), 1+rng.Intn(6), 1+rng.Intn(5))
		logs := split(rng, evs, 1+rng.Intn(5))
		seq, unattr := Build(logs...)
		want, wantUnattr := refBuild(logs...)
		if unattr != wantUnattr || !reflect.DeepEqual(seq, want) {
			t.Fatalf("trial %d: Build = %v, %d; reference = %v, %d", trial, seq, unattr, want, wantUnattr)
		}
	}
}

// TestCollectorMatchesReference: fed from one goroutine, the Collector's
// sequence is the reference grouping of the commits in call order
// followed by the aborts.
func TestCollectorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 100; trial++ {
		// Enough threads to alias shards, enough events to fill chunks.
		evs := randomStream(rng, 1+rng.Intn(3*chunkEvents), 1+rng.Intn(40), 1+rng.Intn(5))
		c := NewCollector()
		var commits, aborts []Event
		for _, ev := range evs {
			if ev.Kind == EventCommit {
				c.OnCommit(ev.Inst, ev.Pair)
				commits = append(commits, ev)
			} else {
				c.OnAbort(ev.Pair, ev.Inst)
				aborts = append(aborts, ev)
			}
		}
		seq, unattr := c.Sequence()
		want, wantUnattr := refBuild(commits, aborts)
		if unattr != wantUnattr || !reflect.DeepEqual(seq, want) {
			t.Fatalf("trial %d: Sequence differs from the reference (%d vs %d unattributed)", trial, unattr, wantUnattr)
		}
		if cm, ab := c.Counts(); cm != len(commits) || ab != len(aborts) {
			t.Fatalf("trial %d: Counts = %d,%d, want %d,%d", trial, cm, ab, len(commits), len(aborts))
		}
	}
}

// TestCollectorProgramOrder runs two goroutines per shard for eight
// shards, each pair's thread IDs aliasing modulo the shard count, and
// checks that every commit appears once and each goroutine's commits
// keep its program order.
func TestCollectorProgramOrder(t *testing.T) {
	const groups, per, commits = 2, 8, 3000
	c := NewCollector()
	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		for w := 0; w < per; w++ {
			thread := uint16(g*collectorShards + w)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < commits; i++ {
					inst := uint64(thread)<<32 | uint64(i+1)
					c.OnCommit(inst, tts.Pair{Tx: uint16(i), Thread: thread})
					if i%3 == 0 {
						c.OnAbort(tts.Pair{Tx: uint16(i), Thread: thread ^ 1}, inst)
					}
				}
			}()
		}
	}
	wg.Wait()
	seq, unattr := c.Sequence()
	if len(seq) != groups*per*commits || unattr != 0 {
		t.Fatalf("len(seq) = %d, unattributed = %d; want %d, 0", len(seq), unattr, groups*per*commits)
	}
	next := make(map[uint16]int)
	for _, st := range seq {
		th := st.Commit.Thread
		if int(st.Commit.Tx) != next[th] {
			t.Fatalf("thread %d: commit %d sequenced where %d was due", th, st.Commit.Tx, next[th])
		}
		next[th]++
		wantAborts := 0
		if st.Commit.Tx%3 == 0 {
			wantAborts = 1
		}
		if len(st.Aborts) != wantAborts {
			t.Fatalf("thread %d commit %d carries aborts %v", th, st.Commit.Tx, st.Aborts)
		}
	}
	for th, n := range next {
		if n != commits {
			t.Errorf("thread %d: %d commits sequenced, want %d", th, n, commits)
		}
	}
}

// TestCollectorHappensBefore: a commit made after receiving from a
// goroutine that sent after its own commit is sequenced later, even when
// the two goroutines log to different shards.
func TestCollectorHappensBefore(t *testing.T) {
	const rounds = 2000
	c := NewCollector()
	ping, pong := make(chan struct{}), make(chan struct{})
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // unrelated traffic on a third shard
		defer wg.Done()
		for i := uint64(1); !done.Load(); i++ {
			c.OnCommit(1<<40|i, tts.Pair{Tx: 9, Thread: 5})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			c.OnCommit(uint64(2*i+1), tts.Pair{Tx: 0, Thread: 1})
			ping <- struct{}{}
			<-pong
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			<-ping
			c.OnCommit(uint64(2*i+2), tts.Pair{Tx: 1, Thread: 2})
			pong <- struct{}{}
		}
		done.Store(true)
	}()
	wg.Wait()
	seq, _ := c.Sequence()
	want := tts.Pair{Tx: 0, Thread: 1}
	seen := 0
	for _, st := range seq {
		if st.Commit.Thread == 5 {
			continue
		}
		if st.Commit != want {
			t.Fatalf("commit %d of the ping-pong is %v, want %v", seen, st.Commit, want)
		}
		seen++
		want.Tx, want.Thread = 1-want.Tx, 3-want.Thread
	}
	if seen != 2*rounds {
		t.Fatalf("%d ping-pong commits sequenced, want %d", seen, 2*rounds)
	}
}

// TestShardLayout pins the shard to one 128-byte block, so no two
// shards share a line or an adjacent-line prefetch pair.
func TestShardLayout(t *testing.T) {
	if n := unsafe.Sizeof(shard{}); n != 128 {
		t.Errorf("shard is %d bytes, want 128", n)
	}
	var c Collector
	if gap := unsafe.Offsetof(c.stamp) - unsafe.Sizeof(c.shards); gap < 128 {
		t.Errorf("stamp sits %d bytes after the shards, want >= 128", gap)
	}
}

// TestOnCommitAllocations: a log grows by whole chunks, so recording
// allocates well under once per hundred events.
func TestOnCommitAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	const events = 10000
	c := NewCollector()
	avg := testing.AllocsPerRun(5, func() {
		for i := 0; i < events; i++ {
			c.OnCommit(uint64(i+1), tts.Pair{Tx: uint16(i % 4), Thread: uint16(i % 2)})
		}
	})
	if per := avg / events; per >= 0.01 {
		t.Errorf("OnCommit allocates %.4f times per event, want < 0.01", per)
	}
}

// profileCollector fills a Collector with a two-thread stream of the
// size of one SynQuake profile run.
func profileCollector() *Collector {
	rng := rand.New(rand.NewSource(7))
	c := NewCollector()
	for _, ev := range randomStream(rng, 150000, 2, 3) {
		if ev.Kind == EventCommit {
			c.OnCommit(ev.Inst, ev.Pair)
		} else {
			c.OnAbort(ev.Pair, ev.Inst)
		}
	}
	return c
}

var (
	seqSink   []tts.State
	benchNext atomic.Uint32
)

// BenchmarkCollectorParallel times one OnCommit, plus an OnAbort every
// fourth commit, from GOMAXPROCS goroutines with distinct thread IDs.
func BenchmarkCollectorParallel(b *testing.B) {
	c := NewCollector()
	b.RunParallel(func(pb *testing.PB) {
		thread := uint16(benchNext.Add(1))
		p := tts.Pair{Tx: 1, Thread: thread}
		for i := uint64(1); pb.Next(); i++ {
			c.OnCommit(i, p)
			if i%4 == 0 {
				c.OnAbort(p, i-1)
			}
			if i%(1<<18) == 0 {
				c.Reset() // keeps the logs' memory bounded
			}
		}
	})
}

// BenchmarkSequence times grouping one SynQuake-sized profile run.
func BenchmarkSequence(b *testing.B) {
	c := profileCollector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seqSink, _ = c.Sequence()
	}
}
