package guide

import (
	"fmt"
	"math/rand"
	"testing"

	"gstm/internal/model"
	"gstm/internal/tts"
)

// edges builds a model from weighted transitions between states and gives
// it the evidence the hold rule asks for: every transaction in conflict
// with every other, so the rule reads as it did before it asked.
func edges(threads int, es ...edge) *model.TSA {
	return bareEdges(threads, es...).AssumeAllConflict()
}

// bareEdges is edges with no evidence beyond what the states carry.
func bareEdges(threads int, es ...edge) *model.TSA {
	m := model.New(threads)
	for _, e := range es {
		for i := 0; i < e.n; i++ {
			m.AddRun([]tts.State{e.from, e.to})
		}
	}
	return m
}

type edge struct {
	from, to tts.State
	n        int
}

func commitOnly(tx, thread uint16) tts.State {
	return tts.State{Commit: tts.Pair{Tx: tx, Thread: thread}}
}

// quakeCore is the SynQuake model's core: two threads, three transaction
// IDs, the six commit-only states. After a move (tx 0) either thread moves
// again or the same thread shoots (tx 1); after anything else somebody
// moves. Every pair a state does not admit is futile there.
func quakeCore() []edge {
	var es []edge
	for th := uint16(0); th < 2; th++ {
		a, other := commitOnly(0, th), commitOnly(0, 1-th)
		es = append(es, edge{a, other, 42}, edge{a, a, 35}, edge{a, commitOnly(1, th), 23})
		for tx := uint16(1); tx < 3; tx++ {
			es = append(es, edge{commitOnly(tx, th), a, 53}, edge{commitOnly(tx, th), other, 47})
		}
	}
	return es
}

// quakeShape is quakeCore where thread 1's shot is sometimes answered by
// thread 0's tx 2, so (tx2,t0) under {tx0,t0} is held behind thread 1: one
// hold that resolves, which keeps the gate tracking state.
func quakeShape() *model.TSA {
	return edges(2, append(quakeCore(), edge{commitOnly(1, 1), commitOnly(2, 0), 30})...)
}

// names reports whether thread th commits or is aborted in st.
func names(st tts.State, th uint16) bool {
	for _, p := range st.Pairs() {
		if p.Thread == th {
			return true
		}
	}
	return false
}

// specAdmits is the paper's rule read off the model: the commit pairs
// of key's high-probability destinations; nil when there is no guidance.
func specAdmits(m *model.TSA, key string, tf float64) map[tts.Pair]bool {
	var out map[tts.Pair]bool
	for _, d := range m.Node(key).HighProbDests(tf) {
		if dn := m.Node(d); dn != nil {
			if out == nil {
				out = make(map[tts.Pair]bool)
			}
			out[dn.State.Commit] = true
		}
	}
	return out
}

// specEvidence is the evidence clause by brute force: some state of the
// model has p's transaction and the transaction of one of the committers
// adm on opposite sides of an abort, whichever of the two committed.
func specEvidence(m *model.TSA, adm map[tts.Pair]bool, p tts.Pair) bool {
	for c := range adm {
		for _, n := range m.Nodes {
			for _, a := range n.State.Aborts {
				if w := n.State.Commit.Tx; (w == c.Tx && a.Tx == p.Tx) || (w == p.Tx && a.Tx == c.Tx) {
					return true
				}
			}
		}
	}
	return false
}

// specResolvable is the hold rule by brute force: a forward search from
// state key over its high-probability destinations, each as p's waiting
// thread would see it (not at all if that thread commits it, without the
// thread's casualties otherwise, and only if the model knows the result),
// looking for a state that admits p, has no evidence against it, or has
// no guidance.
func specResolvable(m *model.TSA, key string, p tts.Pair, tf float64) bool {
	seen := map[string]bool{}
	stack := []string{key}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range m.Node(cur).HighProbDests(tf) {
			dn := m.Node(d)
			if dn == nil || dn.State.Commit.Thread == p.Thread {
				continue
			}
			seenAs := tts.State{Commit: dn.State.Commit}
			for _, a := range dn.State.Aborts {
				if a.Thread != p.Thread {
					seenAs.Aborts = append(seenAs.Aborts, a)
				}
			}
			d = seenAs.Key()
			if m.Node(d) == nil || seen[d] {
				continue
			}
			seen[d] = true
			if adm := specAdmits(m, d, tf); adm == nil || adm[p] || !specEvidence(m, adm, p) {
				return true
			}
			stack = append(stack, d)
		}
	}
	return false
}

// checkPlan compares every verdict of plan with the brute-force rule and
// with the gate's own table, and replays every witness through a
// controller: it must end in an admit that is not an escape. The tables
// must be idle exactly when the brute-force rule holds nobody. unconflicted
// counts the verdicts that came out as admits for lack of conflict
// evidence alone.
func checkPlan(m *model.TSA, tf float64, plan map[string]map[uint32][]string) (unconflicted int, err error) {
	tables, idle := holdTables(m, tf)
	held := 0
	known := map[tts.Pair]bool{}
	for _, n := range m.Nodes {
		for _, p := range n.State.Pairs() {
			known[p] = true
		}
	}
	for key, node := range m.Nodes {
		adm := specAdmits(m, key, tf)
		verdicts := plan[key]
		for p := range known {
			witness, listed := verdicts[p.Key()]
			want := map[bool]verdict{true: vHold, false: vFutile}[len(witness) > 0]
			free := adm == nil || adm[p] || !specEvidence(m, adm, p)
			if adm == nil {
				want = vUnknown
			} else if free {
				want = vAdmit
			}
			got := vUnknown
			if set := tables[key]; set != nil {
				got = set[p.Key()]
			}
			if got != want {
				return 0, fmt.Errorf("%v: the gate reads %v as %d, the explanation as %d", node.State, p, got, want)
			}
			if free {
				if adm != nil && !adm[p] {
					unconflicted++
				}
				if listed {
					return 0, fmt.Errorf("%v: admitted, unconflicted or unguided pair %v has a verdict", node.State, p)
				}
				continue
			}
			if !listed {
				return 0, fmt.Errorf("%v: no verdict for %v", node.State, p)
			}
			resolvable := specResolvable(m, key, p, tf)
			if resolvable != (len(witness) > 0) {
				return 0, fmt.Errorf("%v: pair %v held = %v, brute force says %v", node.State, p, len(witness) > 0, resolvable)
			}
			if resolvable {
				held++
				if err := replay(m, tf, node.State, p, witness); err != nil {
					return 0, fmt.Errorf("%v: pair %v: %w", node.State, p, err)
				}
			}
		}
	}
	if idle != (held == 0) {
		return 0, fmt.Errorf("idle = %v with %d held verdicts", idle, held)
	}
	return unconflicted, nil
}

// enter drives c into state st: its commit, then its casualties.
func enter(c *Controller, instance uint64, st tts.State) {
	c.OnCommit(instance, st.Commit)
	for _, a := range st.Aborts {
		c.OnAbort(a, instance)
	}
}

// replay holds p under state from and plays one witness state per yield.
func replay(m *model.TSA, tf float64, from tts.State, p tts.Pair, witness []string) error {
	for _, key := range witness {
		if st := tts.MustParseKey(key); names(st, p.Thread) {
			return fmt.Errorf("witness state %v names the holder's thread", st)
		}
	}
	var c *Controller
	step := 0
	c = New(m, Options{Tfactor: tf, K: 2, HealthWindow: -1, Yield: func() {
		if step < len(witness) {
			enter(c, uint64(step+2), tts.MustParseKey(witness[step]))
			step++
		}
	}})
	enter(c, 1, from)
	c.Admit(p)
	if st := c.Stats(); st.Holds != 1 || st.Escapes != 0 {
		return fmt.Errorf("witness of %d states replayed to holds=%d escapes=%d", len(witness), st.Holds, st.Escapes)
	}
	return nil
}

// randomTSA draws a small model: ≤ 4 threads, ≤ 4 transaction IDs,
// ≤ 24 states, skewed edge weights so some edges fall below Pmax/Tfactor.
// How much conflict evidence it carries varies from model to model: states
// abort up to 0, 1 or 2 pairs, and up to two abort tuples with no edges
// ride along, the shape AssumeAllConflict gives a hand-built model.
func randomTSA(rng *rand.Rand) *model.TSA {
	threads := 2 + rng.Intn(3)
	txs := 1 + rng.Intn(4)
	pair := func() tts.Pair {
		return tts.Pair{Tx: uint16(rng.Intn(txs)), Thread: uint16(rng.Intn(threads))}
	}
	tuple := func(maxAborts int) tts.State {
		st := tts.State{Commit: pair()}
		for n := rng.Intn(maxAborts + 1); n > 0; n-- {
			if a := pair(); a.Thread != st.Commit.Thread {
				st.Aborts = append(st.Aborts, a)
			}
		}
		return *st.Canonicalize()
	}
	states := make([]tts.State, 2+rng.Intn(23))
	density := rng.Intn(3)
	for i := range states {
		states[i] = tuple(density)
	}
	var es []edge
	for _, from := range states {
		for n := rng.Intn(4); n > 0; n-- {
			es = append(es, edge{from, states[rng.Intn(len(states))], 1 << rng.Intn(5)})
		}
	}
	m := bareEdges(threads, es...)
	for n := rng.Intn(3); n > 0; n-- {
		m.AddRun([]tts.State{tuple(1)})
	}
	return m
}

// TestCompiledHoldsMatchBruteForce: on random small TSAs every compiled
// verdict equals the brute-force rule, every held verdict's witness
// replays to a non-escape admit, and the tables are idle exactly when
// nothing is held — and the same check catches two seeded defects: a
// closure that follows states naming the holder, and the evidence relation
// inverted.
func TestCompiledHoldsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	held, futile, unconflicted, idle := 0, 0, 0, 0
	stockView, stockConflicted := waitingView, conflicted
	mutations := []struct {
		name   string
		seed   func()
		caught int
	}{
		{name: "a closure that follows the holder's own states", seed: func() {
			waitingView = func(st tts.State, _ uint16) (tts.State, bool) { return st, true }
		}},
		{name: "the evidence relation inverted", seed: func() {
			conflicted = func(seen map[[2]uint16]bool, a, b uint16) bool { return !stockConflicted(seen, a, b) }
		}},
	}
	for i := 0; i < 300; i++ {
		m := randomTSA(rng)
		tf := []float64{1, 2, 4}[rng.Intn(3)]
		plan := ExplainHolds(m, tf)
		n, err := checkPlan(m, tf, plan)
		if err != nil {
			t.Fatalf("model %d, Tfactor %v: %v\n%s", i, tf, err, m.Dump(0))
		}
		unconflicted += n
		before := held
		for _, verdicts := range plan {
			for _, w := range verdicts {
				if len(w) > 0 {
					held++
				} else {
					futile++
				}
			}
		}
		if held == before {
			idle++
		}
		for j := range mutations {
			mutations[j].seed()
			if _, err := checkPlan(m, tf, ExplainHolds(m, tf)); err != nil {
				mutations[j].caught++
			}
			waitingView, conflicted = stockView, stockConflicted
		}
	}
	if held < 100 || futile < 100 || unconflicted < 100 || idle < 10 || idle > 150 {
		t.Errorf("vacuous: %d held, %d futile and %d unconflicted verdicts checked, %d of 300 models idle", held, futile, unconflicted, idle)
	}
	for _, mut := range mutations {
		if mut.caught == 0 {
			t.Errorf("mutation not caught: %s passed every model", mut.name)
		}
		t.Logf("%s: caught on %d of 300 models", mut.name, mut.caught)
	}
	t.Logf("%d held, %d futile, %d unconflicted verdicts, %d idle models", held, futile, unconflicted, idle)
}

// TestQuakeShapeReleasesFutileHold: in the SynQuake shape (tx1,t1) is
// admitted only by {tx0,t1}, which thread 1 itself anchors; under
// {tx0,t0} the paper's rule holds it until the k-escape. It is admitted
// at once and counted.
func TestQuakeShapeReleasesFutileHold(t *testing.T) {
	m := quakeShape()
	p := tts.Pair{Tx: 1, Thread: 1}
	if specAdmits(m, commitOnly(0, 0).Key(), model.DefaultTfactor)[p] {
		t.Fatal("setup: {tx0,t0} admits (tx1,t1); the paper's rule would not hold it")
	}
	yields := 0
	c := New(m, Options{HealthWindow: -1, Yield: func() { yields++ }})
	c.OnCommit(1, tts.Pair{Tx: 0, Thread: 0})
	c.Admit(p)
	st := c.Stats()
	if yields != 0 || st.Holds != 0 || st.ImmediateAdmits != 1 || st.FutileAdmits != 1 || st.UnknownPasses != 0 {
		t.Errorf("yields = %d, stats = %+v; want one immediate, futile admit", yields, st)
	}
	// (tx0,t1) is a destination's commit pair: admitted, not futile.
	c.Admit(tts.Pair{Tx: 0, Thread: 1})
	if st := c.Stats(); st.ImmediateAdmits != 2 || st.FutileAdmits != 1 {
		t.Errorf("after a model-admitted pair: %+v", st)
	}
	if st.Admits != st.ImmediateAdmits+st.Holds+st.ReadOnlyAdmits {
		t.Errorf("partition broken: %+v", st)
	}
}

// TestHoldBehindThirdThread: {a0} leads to {b1}, and only {b1} admits
// (c,2). Thread 1 can commit while thread 2 waits, so the pair is held
// and resolves on that commit.
func TestHoldBehindThirdThread(t *testing.T) {
	a0, b1, c2 := commitOnly(0, 0), commitOnly(1, 1), commitOnly(2, 2)
	m := edges(3, edge{a0, b1, 10}, edge{b1, c2, 10}, edge{c2, a0, 10})
	var c *Controller
	yields := 0
	c = New(m, Options{K: 2, HealthWindow: -1, Yield: func() {
		if yields++; yields == 1 {
			c.OnCommit(2, b1.Commit)
		}
	}})
	c.OnCommit(1, a0.Commit)
	c.Admit(c2.Commit)
	if st := c.Stats(); yields != 1 || st.Holds != 1 || st.Escapes != 0 || st.FutileAdmits != 0 {
		t.Errorf("yields = %d, stats = %+v; want one hold resolved by thread 1's commit", yields, st)
	}
	// In this ring every pair's admitting state is anchored by another
	// thread and reached through other threads' states: nothing is futile.
	for _, verdicts := range ExplainHolds(m, model.DefaultTfactor) {
		for pk, w := range verdicts {
			if len(w) == 0 {
				t.Errorf("pair %v released as futile in a ring every thread can wait on", tts.PairFromKey(pk))
			}
		}
	}
}

// TestHoldBehindOwnCasualtyState: the model saw {<a0>} followed only by
// b1 committing and aborting a0. With (a,0) held there is nothing to
// abort: the same commit comes about as {<b1>}, which admits (a,0), so
// the pair is held and resolves on thread 1's commit.
func TestHoldBehindOwnCasualtyState(t *testing.T) {
	a0, b1 := commitOnly(0, 0), commitOnly(1, 1)
	b1KillsA0 := tts.State{Commit: b1.Commit, Aborts: []tts.Pair{a0.Commit}}
	m := edges(2, edge{a0, b1KillsA0, 5}, edge{b1KillsA0, b1, 5}, edge{b1, a0, 5})
	var c *Controller
	yields := 0
	c = New(m, Options{K: 2, HealthWindow: -1, Yield: func() {
		if yields++; yields == 1 {
			c.OnCommit(2, b1.Commit)
		}
	}})
	c.OnCommit(1, a0.Commit)
	c.Admit(a0.Commit)
	if st := c.Stats(); yields != 1 || st.Holds != 1 || st.Escapes != 0 || st.FutileAdmits != 0 {
		t.Errorf("yields = %d, stats = %+v; want one hold resolved by thread 1's commit", yields, st)
	}
}

// TestResolvableHoldEscapesAfterKStale: the escape is still there and
// still exact. (c,2) under {<a0>} of twoStateModel is resolvable — {<b1>}
// has no guidance — but nobody commits: the hold ends after exactly k
// re-checks of an unchanged state.
func TestResolvableHoldEscapesAfterKStale(t *testing.T) {
	const k = 5
	yields := 0
	c := New(twoStateModel(), Options{K: k, HealthWindow: -1, Yield: func() { yields++ }})
	c.OnCommit(1, tts.Pair{Tx: 0, Thread: 0})
	c.Admit(tts.Pair{Tx: 2, Thread: 2})
	st := c.Stats()
	if yields != k || st.Escapes != 1 || st.MaxHoldRechecks != k {
		t.Errorf("yields = %d, escapes = %d, max re-checks = %d; want %d, 1, %d", yields, st.Escapes, st.MaxHoldRechecks, k, k)
	}
}
