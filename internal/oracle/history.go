// Package oracle records transactional operation histories and checks
// them against the correctness properties the paper's whole pipeline
// silently assumes: opacity (Guerraoui & Kapalka) and its committed-only
// weakening, strict serializability.
//
// The package has two halves. The Recorder implements the Monitor
// interface both STM runtimes feed (txn.Monitor) and captures a
// History: per-transaction operation logs with values, stamped with a
// global sequence number that totally orders begin/read/write/end
// events. Check then searches the history for a legal sequential
// witness — an ordering of the committed transactions that respects
// real-time precedence and explains every committed read, and (at
// Level Opacity) additionally gives every aborted transaction a
// consistent snapshot somewhere in that order. A history with no
// witness is a correctness violation; the Violation renders the
// offending interleaving as a counterexample (render.go).
//
// The search is exponential in the worst case, which is fine: the
// deterministic schedule explorer (internal/sched) generates small
// histories — a handful of transactions over a handful of locations —
// by design, following Wehrheim's observation that STM model checking
// needs carefully bounded instances.
package oracle

import (
	"fmt"

	"gstm/internal/tts"
)

// OpKind distinguishes transactional reads from writes.
type OpKind uint8

// Operation kinds.
const (
	OpRead OpKind = iota
	OpWrite
)

// String renders the kind.
func (k OpKind) String() string {
	if k == OpRead {
		return "read"
	}
	return "write"
}

// Op is one transactional access: Kind at location Loc (an index into
// History.Locs) observed or stored Val. Seq is the event's position in
// the recorder's global total order.
type Op struct {
	Kind OpKind
	Loc  int
	Val  int64
	Seq  uint64
}

// TxRecord is one transaction attempt's complete log. Begin and End
// are global sequence numbers: Begin is stamped at OnTxBegin, End at
// OnTxCommit/OnTxAbort, so A.End < B.Begin means A finished before B
// started (a real-time precedence edge the witness must respect).
type TxRecord struct {
	Instance  uint64
	Pair      tts.Pair
	Begin     uint64
	End       uint64
	Ops       []Op
	Committed bool
}

// Loc describes one transactional location: a human name for
// counterexamples and the initial value the history started from.
type Loc struct {
	Name string
	Init int64
}

// History is a finished recording: the location table and every
// completed transaction attempt, in completion order.
type History struct {
	Locs []Loc
	Txs  []TxRecord
}

// LocName renders location l's registered name (or a synthetic one).
func (h *History) LocName(l int) string {
	if l >= 0 && l < len(h.Locs) && h.Locs[l].Name != "" {
		return h.Locs[l].Name
	}
	return fmt.Sprintf("loc%d", l)
}

// Committed returns the indices into h.Txs of committed transactions.
func (h *History) Committed() []int {
	var out []int
	for i := range h.Txs {
		if h.Txs[i].Committed {
			out = append(out, i)
		}
	}
	return out
}

// Aborted returns the indices into h.Txs of aborted attempts.
func (h *History) Aborted() []int {
	var out []int
	for i := range h.Txs {
		if !h.Txs[i].Committed {
			out = append(out, i)
		}
	}
	return out
}
