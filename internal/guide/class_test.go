package guide

import (
	"math/rand"
	"testing"

	"gstm/internal/model"
	"gstm/internal/tts"
)

// exactRule is the exact-state tracker class gating must agree with: the
// state of the latest commit, extended by every abort its instance caused
// (a killer that is not the latest commit extends nothing), read off the
// compiled tables.
type exactRule struct {
	hold, relaxed map[string]holdSet
	state         *tts.State
	anchor        uint64
	extended      int // aborts that extended the state
}

func newExactRule(m *model.TSA, tf float64) *exactRule {
	hold, _ := holdTables(m, tf)
	return &exactRule{hold: hold, relaxed: relaxTables(m, hold, tf*DefaultRelaxFactor)}
}

func (r *exactRule) commit(instance uint64, p tts.Pair) {
	r.state, r.anchor = &tts.State{Commit: p}, instance
}

func (r *exactRule) abort(victim tts.Pair, killer uint64) {
	if r.state == nil || killer != r.anchor {
		return
	}
	st := tts.State{Commit: r.state.Commit, Aborts: append(append([]tts.Pair(nil), r.state.Aborts...), victim)}
	r.state = st.Canonicalize()
	r.extended++
}

// admits is WouldAdmit's answer under the exact state: no state or no
// guidance admits everyone.
func (r *exactRule) admits(p tts.Pair, lvl Level) bool {
	if r.state == nil {
		return true
	}
	set := r.hold[r.state.Key()]
	if lvl == LevelRelaxed {
		set = r.relaxed[r.state.Key()]
	}
	return set[p.Key()] != vHold
}

// diverges reports the first pair and level at which c's verdict is not
// the exact rule's.
func diverges(c *Controller, r *exactRule, pairs []tts.Pair) (tts.Pair, Level, bool) {
	defer c.level.Store(int32(LevelGuided))
	for _, lvl := range []Level{LevelGuided, LevelRelaxed} {
		c.level.Store(int32(lvl))
		for _, p := range pairs {
			if ok, _ := c.WouldAdmit(p); ok != r.admits(p, lvl) {
				return p, lvl, true
			}
		}
	}
	return tts.Pair{}, 0, false
}

// playTwoThreads drives c and r through one random causally ordered
// two-thread sequence on m and returns the first divergence. Commits and
// aborts share one clock; an abort's killer is a commit of the other
// thread made after the victim's own previous event, as it is in an STM,
// where an attempt starts after its thread's last commit or abort.
func playTwoThreads(rng *rand.Rand, c *Controller, r *exactRule, pairs []tts.Pair) (step int, p tts.Pair, lvl Level, bad bool) {
	const aborted = 0xffff // the Tx of a clock tick that was an abort
	var commits []tts.Pair // commits[i] happened at instance i+1
	var last [2]uint64
	tx := func() uint16 { return uint16(rng.Intn(5)) } // 4 is never in a model
	for now := uint64(1); now <= 80; now++ {
		th := uint16(rng.Intn(2))
		var killers []uint64
		for i := last[th]; i < uint64(len(commits)); i++ {
			if commits[i].Thread != th && commits[i].Tx != aborted {
				killers = append(killers, i+1)
			}
		}
		if len(killers) > 0 && rng.Intn(3) == 0 {
			victim, killer := tts.Pair{Tx: tx(), Thread: th}, killers[rng.Intn(len(killers))]
			c.OnAbort(victim, killer)
			r.abort(victim, killer)
			commits = append(commits, tts.Pair{Tx: aborted, Thread: th})
		} else {
			p := tts.Pair{Tx: tx(), Thread: th}
			c.OnCommit(now, p)
			r.commit(now, p)
			commits = append(commits, p)
		}
		last[th] = now
		if p, lvl, bad := diverges(c, r, pairs); bad {
			return int(now), p, lvl, true
		}
	}
	return 0, tts.Pair{}, 0, false
}

// TestClassGatingMatchesExactState: on random TSAs and random two-thread
// event sequences, causally ordered, the class-gated controller answers
// WouldAdmit exactly as the exact-state rule does for every known pair, at
// both ladder levels, after every event — though it stores cur only when
// the verdict class changes. A class keyed on the guided table alone must
// be caught.
func TestClassGatingMatchesExactState(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	stockKey := classKey
	caught, skipped, tracked, extended := 0, 0, 0, 0
	for i := 0; i < 300; i++ {
		m := randomTSA(rng)
		tf := []float64{1, 2, 4}[rng.Intn(3)]
		pairs := append(m.Pairs(), tts.Pair{Tx: 4, Thread: 0})
		seed := rng.Int63()
		run := func() (int, tts.Pair, Level, bool) {
			c, r := New(m, Options{Tfactor: tf, HealthWindow: -1}), newExactRule(m, tf)
			if c.tables.Load().idle {
				return 0, tts.Pair{}, 0, false
			}
			defer func() { extended += r.extended }()
			return playTwoThreads(rand.New(rand.NewSource(seed)), c, r, pairs)
		}
		if step, p, lvl, bad := run(); bad {
			t.Fatalf("model %d, Tfactor %v: event %d: WouldAdmit(%v) at %v differs from the exact-state rule\n%s", i, tf, step, p, lvl, m.Dump(0))
		}
		if New(m, Options{Tfactor: tf}).tables.Load().idle {
			skipped++
			continue
		}
		tracked++
		classKey = func(hold, _ holdSet) string { return stockKey(hold, nil) }
		if _, _, _, bad := run(); bad {
			caught++
		}
		classKey = stockKey
	}
	if tracked < 100 || extended < 1000 {
		t.Errorf("vacuous: %d of 300 models track state (%d idle), %d aborts extended a state", tracked, skipped, extended)
	}
	if caught == 0 {
		t.Error("mutation not caught: a class keyed on the guided table alone passed every model")
	}
	t.Logf("%d models tracked state, %d idle, %d extending aborts; guided-table-only classes caught on %d", tracked, skipped, extended, caught)
}

// thirdThreadModel: {A} and {C} lead only to {B}, so they share a verdict
// class; {A} with B aborted leads to {C}, and {D}, on C's thread, to {A}:
// classes of their own. Under {C} and {D} the pair C is held; under the
// extension it is admitted.
func thirdThreadModel() (m *model.TSA, a, b, c, d tts.Pair) {
	a, b, c, d = tts.Pair{Tx: 0, Thread: 0}, tts.Pair{Tx: 1, Thread: 1}, tts.Pair{Tx: 2, Thread: 2}, tts.Pair{Tx: 3, Thread: 2}
	st := func(p tts.Pair, aborts ...tts.Pair) tts.State { return tts.State{Commit: p, Aborts: aborts} }
	return edges(3,
		edge{st(a), st(b), 10}, edge{st(c), st(b), 10}, edge{st(d), st(a), 10},
		edge{st(a, b), st(c), 10},
		edge{st(b), st(a), 10}, edge{st(b), st(c), 10}, edge{st(b), st(d), 10},
	), a, b, c, d
}

// TestClassGatingThirdThreadWindow pins the one divergence from the
// exact-state rule: with three threads, an abort by the second-to-last
// commit extends that commit's state when the last commit kept its verdict
// class — and only then, which a controller without OnAbort's class check
// gets wrong.
func TestClassGatingThirdThreadWindow(t *testing.T) {
	m, a, b, c, d := thirdThreadModel()
	classes := New(m, Options{}).tables.Load().verdicts
	key := func(p tts.Pair) string { return (&tts.State{Commit: p}).Key() }
	if classes[key(a)] != classes[key(c)] || classes[key(a)] == classes[key(d)] {
		t.Fatalf("setup: want {A} and {C} in one class, {D} in another: %v", classes)
	}
	play := func(last tts.Pair) bool {
		g := New(m, Options{HealthWindow: -1})
		g.OnCommit(1, a)
		g.OnCommit(2, last)
		if ok, _ := g.WouldAdmit(c); ok {
			t.Fatalf("setup: C admitted under {%v}", last)
		}
		g.OnAbort(b, 1)
		ok, _ := g.WouldAdmit(c)
		return ok
	}
	// The exact-state rule drops both aborts: instance 1 is not the latest
	// commit. Class gating extends {A} behind C's same-class commit.
	if !play(c) {
		t.Error("abort by the commit before a same-class commit: not extended, want the documented window")
	}
	if play(d) {
		t.Error("abort by the commit before a class change: extended, want it dropped")
	}
	stock := sameClass
	defer func() { sameClass = stock }()
	sameClass = func(_, _ *snapshot) bool { return true }
	if !play(d) {
		t.Error("mutation not caught: OnAbort without the class check dropped the abort anyway")
	}
}

// TestResetForgetsCommits: Reset drops the threads' latest commits along
// with cur. The next run's STM numbers its commits from 1 again, so a word
// left from the previous run would read as newer than the new run's first
// commit, and a swap would rebase cur on it.
func TestResetForgetsCommits(t *testing.T) {
	m, a, _, _, d := thirdThreadModel()
	g := New(m, Options{HealthWindow: -1})
	g.OnCommit(1000, a)
	g.Reset()
	g.OnCommit(1, d)
	g.SwapModel(m)
	if st := g.cur.Load().state; st.Commit != d {
		t.Errorf("swap after Reset rebased cur on %v, want the new run's commit %v", st.Commit, d)
	}
}
