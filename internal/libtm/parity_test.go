package libtm

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"gstm/internal/fault"
	"gstm/internal/tts"
)

// Killer attribution is the runtime's contract with the trace → model →
// guide pipeline: every abort names the instance that caused it, and
// the model's abort tuples are built from those names. This table pins,
// for each conflict kind LibTM detects and in every mode corner where it
// can arise, whether the attempt aborts and which killer the tracer
// receives. A change to the object metadata must leave every row as is.

// killTrace records, per pair, the committed instances and the killers
// of its aborts, in arrival order. onAbort (optional) runs after the
// abort is recorded, on the aborting goroutine.
type killTrace struct {
	mu      sync.Mutex
	commits map[tts.Pair][]uint64
	killers map[tts.Pair][]uint64
	onAbort func(p tts.Pair)
}

func newKillTrace() *killTrace {
	return &killTrace{commits: map[tts.Pair][]uint64{}, killers: map[tts.Pair][]uint64{}}
}

func (k *killTrace) OnCommit(instance uint64, p tts.Pair) {
	k.mu.Lock()
	k.commits[p] = append(k.commits[p], instance)
	k.mu.Unlock()
}

func (k *killTrace) OnAbort(p tts.Pair, killer uint64) {
	k.mu.Lock()
	k.killers[p] = append(k.killers[p], killer)
	f := k.onAbort
	k.mu.Unlock()
	if f != nil {
		f(p)
	}
}

func (k *killTrace) get(p tts.Pair) (commits, killers []uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]uint64(nil), k.commits[p]...), append([]uint64(nil), k.killers[p]...)
}

var (
	rivalPair  = tts.Pair{Tx: 0, Thread: 0}
	victimPair = tts.Pair{Tx: 1, Thread: 1}
)

// parityOpts keeps the victim's retries plain conflict retries:
// escalation (and the watchdog that arms it) would turn a long abort
// streak into an irrevocable attempt with its own locking.
func parityOpts(m Mode) Options {
	return Options{Mode: m, EscalateAfter: -1, WatchdogWindow: -1, YieldEvery: -1, WaitSpin: 4}
}

// holderScenario parks the rival inside its commit with o's write lock
// held (the fault injector's lock-release stall, armed for its first
// opportunity only) and runs the victim's body against o meanwhile. It
// reports false when the victim happened to miss the window (it never
// aborted), so the caller can repeat the round.
func holderScenario(t *testing.T, m Mode, victim func(tx *Tx, o *Obj)) (tr *killTrace, ok bool) {
	t.Helper()
	inj := fault.NewInjector(1).Set(fault.LockReleaseDelay,
		fault.Rule{Every: 1, Limit: 1, Delay: 30 * time.Millisecond})
	opts := parityOpts(m)
	opts.Inject = inj
	s := New(opts)
	tr = newKillTrace()
	s.SetTracer(tr)
	o := NewObj(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.Atomic(rivalPair.Thread, rivalPair.Tx, func(tx *Tx) error {
			tx.Write(o, 1)
			return nil
		})
	}()
	// The rival is the only committer so far: its stall is the first
	// opportunity, and once it is seen the rival holds o's lock.
	for inj.Seen(fault.LockReleaseDelay) == 0 {
		runtime.Gosched()
	}
	if err := s.Atomic(victimPair.Thread, victimPair.Tx, func(tx *Tx) error {
		victim(tx, o)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	<-done
	_, killers := tr.get(victimPair)
	return tr, len(killers) > 0
}

// overwriteScenario lets the victim read o and pause; the rival then
// runs two write transactions on o; the victim resumes (optionally
// writing o back) and commits. The victim resumes once both rival
// transactions have returned, or at the rival's first abort if that
// comes first (a wait-for-readers rival cannot commit while the
// victim's visible read stands).
func overwriteScenario(t *testing.T, m Mode, rmw bool) *killTrace {
	t.Helper()
	s := New(parityOpts(m))
	tr := newKillTrace()
	resume := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(resume) }) }
	tr.onAbort = func(p tts.Pair) {
		if p == rivalPair {
			release()
		}
	}
	s.SetTracer(tr)
	o := NewObj(0)
	paused := make(chan struct{})
	victimDone := make(chan struct{})
	go func() {
		defer close(victimDone)
		first := true
		if err := s.Atomic(victimPair.Thread, victimPair.Tx, func(tx *Tx) error {
			v := tx.Read(o)
			if first {
				first = false
				close(paused)
				<-resume
			}
			if rmw {
				tx.Write(o, v+1)
			}
			return nil
		}); err != nil {
			t.Error(err)
		}
	}()
	<-paused
	for i := int64(1); i <= 2; i++ {
		if err := s.Atomic(rivalPair.Thread, rivalPair.Tx, func(tx *Tx) error {
			tx.Write(o, 10*i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	release()
	<-victimDone
	return tr
}

func TestKillerAttributionParity(t *testing.T) {
	const (
		// The victim aborts and its first killer is the instance of the
		// rival's first / last commit.
		killedByFirst = iota
		killedByLast
		// The rival's first abort is a self-abort (killer 0) and the
		// victim commits untouched.
		rivalSelfAborts
	)
	read := func(tx *Tx, o *Obj) { _ = tx.Read(o) }
	write := func(tx *Tx, o *Obj) { tx.Write(o, 7) }
	for _, m := range allModes() {
		vis := m.Reads == VisibleReads
		// Read then overwrite: invisible reads fail validation against
		// the latest committer; visible readers are doomed by the first
		// writer (abort-readers) or make it give up (wait-for-readers).
		overwriteWant := killedByLast
		if vis && m.Resolution == AbortReaders {
			overwriteWant = killedByFirst
		} else if vis {
			overwriteWant = rivalSelfAborts
		}
		cases := []struct {
			kind   string
			holder func(tx *Tx, o *Obj) // nil: overwrite scenario
			rmw    bool
			want   int
		}{
			{"read-meets-write-lock", read, false, killedByFirst},
			{"writer-meets-writer", write, false, killedByFirst},
			{"read-then-overwrite", nil, false, overwriteWant},
			{"rmw-then-overwrite", nil, true, overwriteWant},
		}
		for _, c := range cases {
			t.Run(m.String()+"/"+c.kind, func(t *testing.T) {
				var tr *killTrace
				if c.holder != nil {
					ok := false
					for round := 0; round < 5 && !ok; round++ {
						tr, ok = holderScenario(t, m, c.holder)
					}
					if !ok {
						t.Fatal("victim never met the rival's write lock in 5 rounds")
					}
				} else {
					tr = overwriteScenario(t, m, c.rmw)
				}
				rivalCommits, rivalKillers := tr.get(rivalPair)
				victimCommits, victimKillers := tr.get(victimPair)
				if len(victimCommits) != 1 || len(rivalCommits) == 0 {
					t.Fatalf("commits: victim %v, rival %v", victimCommits, rivalCommits)
				}
				switch c.want {
				case killedByFirst, killedByLast:
					if len(rivalKillers) != 0 {
						t.Errorf("rival aborted (killers %v), want no rival abort", rivalKillers)
					}
					if len(victimKillers) == 0 {
						t.Fatal("victim never aborted")
					}
					want := rivalCommits[0]
					if c.want == killedByLast {
						want = rivalCommits[len(rivalCommits)-1]
					}
					if got := victimKillers[0]; got != want {
						t.Errorf("victim's first killer = %d, want %d (rival commits %v)", got, want, rivalCommits)
					}
				case rivalSelfAborts:
					if len(victimKillers) != 0 {
						t.Errorf("victim aborted (killers %v), want it untouched", victimKillers)
					}
					if len(rivalKillers) == 0 || rivalKillers[0] != 0 {
						t.Errorf("rival killers = %v, want a first self-abort (killer 0)", rivalKillers)
					}
				}
			})
		}
	}
}
