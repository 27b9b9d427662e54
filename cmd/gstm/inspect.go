package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"gstm/internal/guide"
	"gstm/internal/model"
	"gstm/internal/tts"
)

// explainHolds writes, for the max most-travelled states of the model
// the gate runs (m pruned at tf, as -op model builds it), what happens
// to every pair the model knows: admitted by one of the state's
// high-probability destinations, admitted because the model never saw its
// transaction in conflict with one of those destinations' committers,
// held behind a state another thread can bring about (with the path to
// it), or released as futile because only the pair's own thread could
// bring such a state about.
func explainHolds(w io.Writer, m *model.TSA, tf float64, max int) {
	pruned := m.Prune(tf)
	plan := guide.ExplainHolds(pruned, tf)
	keys := make([]string, 0, len(pruned.Nodes))
	for k := range pruned.Nodes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := pruned.Nodes[keys[i]], pruned.Nodes[keys[j]]
		if a.Total != b.Total {
			return a.Total > b.Total
		}
		return keys[i] < keys[j]
	})
	if max > 0 && len(keys) > max {
		keys = keys[:max]
	}
	fmt.Fprintf(w, "hold rule at Tfactor %g, pruned model of %d states:\n", tf, pruned.NumStates())
	held, futile := 0, 0
	for _, verdicts := range plan {
		for _, witness := range verdicts {
			if len(witness) > 0 {
				held++
			} else {
				futile++
			}
		}
	}
	if held == 0 {
		fmt.Fprintf(w, "idle: the gate tracks no state (no state holds anybody; %d futile verdicts admitted without tracking)\n", futile)
	}
	for _, k := range keys {
		node := pruned.Nodes[k]
		fmt.Fprintf(w, "%s (out=%d)\n", node.State, node.Total)
		var admitted, unconflicted, held, futile []uint32
		seen := map[uint32]bool{}
		for _, d := range node.HighProbDests(tf) {
			if pk := pruned.Nodes[d].State.Commit.Key(); !seen[pk] {
				seen[pk] = true
				admitted = append(admitted, pk)
			}
		}
		if len(admitted) == 0 {
			fmt.Fprintln(w, "  no guidance: admits everyone")
			continue
		}
		verdicts := plan[k]
		for pk, witness := range verdicts {
			if len(witness) > 0 {
				held = append(held, pk)
			} else {
				futile = append(futile, pk)
			}
		}
		for _, p := range pruned.Pairs() {
			if _, judged := verdicts[p.Key()]; !judged && !seen[p.Key()] {
				unconflicted = append(unconflicted, p.Key())
			}
		}
		fmt.Fprintf(w, "  admitted:    %s\n", pairList(admitted, nil))
		fmt.Fprintf(w, "  no evidence: %s\n", pairList(unconflicted, nil))
		fmt.Fprintf(w, "  held:        %s\n", pairList(held, verdicts))
		fmt.Fprintf(w, "  futile:      %s\n", pairList(futile, nil))
	}
}

// pairList renders pair keys in order, each followed by its witness path
// when witnesses has one.
func pairList(pairs []uint32, witnesses map[uint32][]string) string {
	if len(pairs) == 0 {
		return "-"
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i] < pairs[j] })
	parts := make([]string, len(pairs))
	for i, pk := range pairs {
		parts[i] = tts.PairFromKey(pk).String()
		if path := witnesses[pk]; len(path) > 0 {
			states := make([]string, len(path))
			for j, key := range path {
				states[j] = tts.MustParseKey(key).String()
			}
			parts[i] += " (via → " + strings.Join(states, " → ") + ")"
		}
	}
	return strings.Join(parts, ", ")
}
