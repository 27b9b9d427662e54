package oracle

import (
	"fmt"
	"sync"

	"gstm/internal/tts"
)

// Recorder captures a History through the runtimes' Monitor hook
// (txn.Monitor, one interface for both runtimes), so one recorder
// instance observes either runtime:
//
//	rec := oracle.NewRecorder()
//	rec.Register(x, "x", 0)
//	stm.SetMonitor(rec)
//
// All methods are safe for concurrent use; a single mutex totally
// orders events and assigns the global sequence numbers the checker's
// real-time edges are built from. The lock makes the hook decidedly
// not nil-cost while armed — which is fine, because it is armed only
// inside the schedule explorer, where one goroutine runs at a time
// anyway. Unarmed runtimes pay one atomic pointer load (see
// SetMonitor in either runtime).
type Recorder struct {
	mu   sync.Mutex
	seq  uint64
	locs map[any]int
	info []Loc
	open map[uint64]*TxRecord
	done []TxRecord
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		locs: make(map[any]int),
		open: make(map[uint64]*TxRecord),
	}
}

// Register names a transactional location (a *tl2.Var or *libtm.Obj)
// and records its initial value, which anchors the checker's memory
// simulation. Call it for every location before running transactions;
// an unregistered location touched by a transaction is auto-registered
// with a synthetic name and initial value 0.
func (r *Recorder) Register(loc any, name string, init int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.locs[loc]; ok {
		r.info[i] = Loc{Name: name, Init: init}
		return
	}
	r.locs[loc] = len(r.info)
	r.info = append(r.info, Loc{Name: name, Init: init})
}

// locIndex resolves (auto-registering) a location. Caller holds r.mu.
func (r *Recorder) locIndex(loc any) int {
	if i, ok := r.locs[loc]; ok {
		return i
	}
	i := len(r.info)
	r.locs[loc] = i
	r.info = append(r.info, Loc{Name: fmt.Sprintf("loc%d", i)})
	return i
}

// OnTxBegin starts instance's log. Part of the Monitor contract.
func (r *Recorder) OnTxBegin(instance uint64, p tts.Pair) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	r.open[instance] = &TxRecord{Instance: instance, Pair: p, Begin: r.seq}
}

// OnTxRead logs a completed transactional read with the value returned
// to the transaction body.
func (r *Recorder) OnTxRead(instance uint64, loc any, val int64) {
	r.opEvent(instance, OpRead, loc, val)
}

// OnTxWrite logs a transactional write with the value stored.
func (r *Recorder) OnTxWrite(instance uint64, loc any, val int64) {
	r.opEvent(instance, OpWrite, loc, val)
}

func (r *Recorder) opEvent(instance uint64, kind OpKind, loc any, val int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.open[instance]
	if t == nil {
		// An op for an instance we never saw begin (monitor installed
		// mid-flight): drop it rather than fabricate a partial record.
		return
	}
	r.seq++
	t.Ops = append(t.Ops, Op{Kind: kind, Loc: r.locIndex(loc), Val: val, Seq: r.seq})
}

// OnTxCommit closes instance's log as committed.
func (r *Recorder) OnTxCommit(instance uint64) { r.finish(instance, true) }

// OnTxAbort closes instance's log as aborted.
func (r *Recorder) OnTxAbort(instance uint64) { r.finish(instance, false) }

func (r *Recorder) finish(instance uint64, committed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.open[instance]
	if t == nil {
		return
	}
	delete(r.open, instance)
	r.seq++
	t.End = r.seq
	t.Committed = committed
	r.done = append(r.done, *t)
}

// History snapshots the completed attempts. Call after every
// transaction has finished (in-flight attempts are excluded).
func (r *Recorder) History() *History {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := &History{
		Locs: append([]Loc(nil), r.info...),
		Txs:  make([]TxRecord, len(r.done)),
	}
	for i := range r.done {
		h.Txs[i] = r.done[i]
		h.Txs[i].Ops = append([]Op(nil), r.done[i].Ops...)
	}
	return h
}
