package guide

import (
	"maps"
	"sort"

	"gstm/internal/model"
	"gstm/internal/tts"
)

// verdict is the gate's reading of one pair under one state.
type verdict uint8

const (
	vAdmit   verdict = iota // a destination commits the pair, or the model never saw it, or never in conflict with one
	vUnknown                // no current state, or one the model has no guidance for
	vFutile                 // not admitted here, nor by any state its thread's waiting can bring about
	vHold                   // not admitted here, but by a state that can come about while it waits
)

// holdSet is one state's verdicts at one Tfactor: nil (vUnknown) when the
// model has no guidance for the state, otherwise the pairs the paper's rule
// withholds, held or futile, so a state that withholds nobody is an empty map.
type holdSet map[uint32]verdict

// waitingView is how state st comes about while thread th waits at the
// gate. th has no transaction in flight: it cannot commit (ok false), and
// a commit the model saw abort it happens without that casualty. A
// variable so the mutation test can knock it out.
var waitingView = func(st tts.State, th uint16) (view tts.State, ok bool) {
	view = tts.State{Commit: st.Commit}
	for _, a := range st.Aborts {
		if a.Thread != th {
			view.Aborts = append(view.Aborts, a)
		}
	}
	return view, st.Commit.Thread != th
}

// conflicted reports whether the model saw transactions a and b on opposite
// sides of an abort. A variable so the mutation test can invert it.
var conflicted = func(seen map[[2]uint16]bool, a, b uint16) bool { return seen[[2]uint16{a, b}] }

// holdGraph is a model's hold rule at one Tfactor. Under a state with
// guidance the gate may hold only a pair that no high-probability
// destination commits and whose transaction the model saw in conflict with
// such a committer's (admitting a predicted casualty re-creates the
// conflict the guidance removes; holding what never conflicts removes no
// abort, only enforces the profiled order), and only if the wait can work:
// along high-probability edges, each taken as the waiting thread sees it
// (waitingView), a state that admits the pair or has no guidance comes
// about. Otherwise the wait could only end in the k-escape and the pair
// is released as futile. A view the model never saw ends the path, and
// abort-extensions are not followed: each is a destination of its own,
// with its own probability.
type holdGraph struct {
	m      *model.TSA
	keys   []string              // sorted: witnesses must not depend on map order
	idx    map[string]int        // key → position in keys
	admits []map[uint32]struct{} // commit pairs of i's high-probability destinations; nil: no guidance
	pred   [][]int               // the high-probability edges, inverted
	pairs  map[uint16][]uint32   // every pair some tuple names, by thread
	foes   map[[2]uint16]bool    // transaction IDs some tuple has across an abort, both ways round
}

func newHoldGraph(m *model.TSA, tf float64) *holdGraph {
	n := len(m.Nodes)
	g := &holdGraph{m: m, idx: make(map[string]int, n), admits: make([]map[uint32]struct{}, n),
		pred: make([][]int, n), pairs: make(map[uint16][]uint32), foes: make(map[[2]uint16]bool)}
	for k := range m.Nodes {
		g.keys = append(g.keys, k)
	}
	sort.Strings(g.keys)
	for _, p := range m.Pairs() {
		g.pairs[p.Thread] = append(g.pairs[p.Thread], p.Key())
	}
	for i, k := range g.keys {
		g.idx[k] = i
		st := m.Nodes[k].State
		for _, a := range st.Aborts {
			g.foes[[2]uint16{a.Tx, st.Commit.Tx}], g.foes[[2]uint16{st.Commit.Tx, a.Tx}] = true, true
		}
	}
	for i, k := range g.keys {
		for _, d := range m.Nodes[k].HighProbDests(tf) {
			if j, ok := g.idx[d]; ok {
				if g.admits[i] == nil {
					g.admits[i] = make(map[uint32]struct{})
				}
				g.admits[i][m.Nodes[d].State.Commit.Key()] = struct{}{}
				g.pred[j] = append(g.pred[j], i)
			}
		}
	}
	return g
}

// ends reports whether state i ends a wait for pair pk: no guidance, or a
// destination commits it, or none of them was seen in conflict with it.
func (g *holdGraph) ends(i int, pk uint32) bool {
	if _, ok := g.admits[i][pk]; ok {
		return true
	}
	for c := range g.admits[i] {
		if conflicted(g.foes, uint16(pk>>16), uint16(c>>16)) {
			return false
		}
	}
	return true
}

// each calls f(s, pk, via) for every state s with guidance and every
// known pair pk that s does not admit. via[x] is x's next hop on a
// shortest path to a state that ends the wait (itself for such a state,
// -1 when there is none): one backward breadth-first search per pair.
func (g *holdGraph) each(f func(s int, pk uint32, via []int)) {
	via := make([]int, len(g.keys))
	view := make([]int, len(g.keys)) // what i comes about as while the thread waits; -1: it cannot
	for th, pairs := range g.pairs {
		alias := make([][]int, len(g.keys)) // the states that come about as i
		for i, k := range g.keys {
			view[i] = -1
			if st, ok := waitingView(g.m.Nodes[k].State, th); ok {
				if j, ok := g.idx[st.Key()]; ok {
					view[i] = j
					alias[j] = append(alias[j], i)
				}
			}
		}
		for _, pk := range pairs {
			var queue []int
			for i := range via {
				via[i] = -1
				if view[i] == i && g.ends(i, pk) {
					via[i] = i
					queue = append(queue, i)
				}
			}
			for ; len(queue) > 0; queue = queue[1:] {
				for _, z := range alias[queue[0]] {
					for _, y := range g.pred[z] {
						if via[y] < 0 {
							via[y] = queue[0]
							if view[y] == y {
								queue = append(queue, y)
							}
						}
					}
				}
			}
			for s := range g.keys {
				if g.admits[s] != nil && !g.ends(s, pk) {
					f(s, pk, via)
				}
			}
		}
	}
}

// holdTables compiles m's hold rule at Tfactor tf into the gate's lookup
// tables, idle when no state holds anybody (futile is an admit too). It
// runs once per model (New, SwapModel), never per transaction.
func holdTables(m *model.TSA, tf float64) (out map[string]holdSet, idle bool) {
	g := newHoldGraph(m, tf)
	out, idle = make(map[string]holdSet), true
	for i, k := range g.keys {
		if g.admits[i] != nil {
			out[k] = make(holdSet)
		}
	}
	g.each(func(s int, pk uint32, via []int) {
		out[g.keys[s]][pk] = vFutile
		if via[s] >= 0 {
			out[g.keys[s]][pk], idle = vHold, false
		}
	})
	return out, idle
}

// relaxTables restricts hold to the wider destination sets of Tfactor tf: a
// pair keeps its verdict unless a destination now commits it, so a step
// down the ladder never adds a hold.
func relaxTables(m *model.TSA, hold map[string]holdSet, tf float64) map[string]holdSet {
	out := make(map[string]holdSet, len(hold))
	for k, set := range hold {
		if out[k] = set; len(set) == 0 {
			continue // nothing to release: share the empty set
		}
		out[k] = maps.Clone(set)
		for _, d := range m.Nodes[k].HighProbDests(tf) {
			if n := m.Nodes[d]; n != nil {
				delete(out[k], n.State.Commit.Key())
			}
		}
	}
	return out
}

// ExplainHolds spells out the hold rule the gate compiles from m at
// Tfactor tf, for reports and tests: state key → pair key → witness, for
// every known pair a state with guidance does not admit and has conflict
// evidence against. A non-empty witness is the path of states that ends
// the wait: the pair is held. An empty one means there is none: released
// as futile. A plan without a witness is an idle gate.
func ExplainHolds(m *model.TSA, tf float64) map[string]map[uint32][]string {
	g := newHoldGraph(m, tf)
	plan := make(map[string]map[uint32][]string)
	g.each(func(s int, pk uint32, via []int) {
		var w []string
		for x := via[s]; x >= 0; x = via[x] {
			w = append(w, g.keys[x])
			if g.ends(x, pk) {
				break
			}
		}
		if plan[g.keys[s]] == nil {
			plan[g.keys[s]] = make(map[uint32][]string)
		}
		plan[g.keys[s]][pk] = w
	})
	return plan
}
