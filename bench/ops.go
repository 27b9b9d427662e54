package bench

import (
	"errors"
	"fmt"
	"math"
	"time"

	"gstm/internal/guide"
	"gstm/internal/stamp"
	"gstm/internal/tl2"
	"gstm/internal/trace"
)

// The two TL2 workloads the driver issues transactions for itself. Each
// thread executes a fixed operation list generated from the seed before
// the clock starts; every unit replays the same lists.
const (
	opsPerThread = 10000 // Atomic calls per thread and unit
	opsProfile   = 10    // profile units that train the model

	// ladder-disjoint: each thread transfers inside a private array.
	ladderWords   = 256
	ladderThink   = 400 // mean multiply-adds between calls
	ladderInitial = 1000

	// bank-hot: all threads share a handful of accounts.
	bankAccounts = 8
	bankBody     = 300 // multiply-adds inside a transfer
	bankInitial  = 1 << 20
	bankAuditPct = 30
)

// txAudit is the transaction id of bank-hot's audits; transfers are id 0.
const txAudit uint16 = 1

// op is one pre-generated transaction: a transfer of amt from one word to
// another (reading `extra` further words on ladder-disjoint), or an audit,
// followed by `think` multiply-adds outside any transaction.
type op struct {
	tx, think uint16
	from, to  uint8
	extra     [8]uint8
	amt       int64
}

var errAudit = errors.New("bench: audit saw a sum that no serial order produces")

// opsWorkload is ladder-disjoint or bank-hot.
type opsWorkload struct {
	name  string
	hot   bool
	lists [Threads][]op
	inst  *opsInstance
	ctrl  *guide.Controller
}

// opsInstance is one STM with the shared state the lists run against.
// Transactional words belong to the STM whose clock stamped them, so every
// STM gets its own.
type opsInstance struct {
	stm  *tl2.STM
	arr  [Threads]*tl2.Array // bank-hot: every thread uses the same array
	want int64               // invariant: the sum of each array
}

func newOps(name string, seed int64) *opsWorkload {
	w := &opsWorkload{name: name, hot: name == "bank-hot"}
	for t := range w.lists {
		rng := stamp.NewRand(seed<<8 + int64(t))
		list := make([]op, opsPerThread)
		for i := range list {
			o := &list[i]
			words := ladderWords
			if w.hot {
				words = bankAccounts
				if rng.Intn(100) < bankAuditPct {
					o.tx = txAudit
					continue
				}
			} else {
				// Exponential think time, not constant: two threads of
				// equal, regular pace commit in strict alternation, the
				// model learns "the other thread is next" and the gate
				// holds seven calls in ten on data that never conflicts.
				o.think = uint16(min(-ladderThink*math.Log(1-rng.Float64()), 10*ladderThink))
			}
			o.from = uint8(rng.Intn(words))
			o.to = uint8((int(o.from) + 1 + rng.Intn(words-1)) % words)
			o.amt = int64(1 + rng.Intn(9))
			for j := range o.extra {
				o.extra[j] = uint8(rng.Intn(words))
			}
		}
		w.lists[t] = list
	}
	return w
}

func (w *opsWorkload) Name() string { return w.name }

func (w *opsWorkload) Runtime() string { return "tl2" }

func (w *opsWorkload) WarmPairs() int { return 8 }

func (w *opsWorkload) Controllers() []*guide.Controller { return []*guide.Controller{w.ctrl} }

// options are the TL2 options of every benchmark-built STM: no scheduler
// yield emulation (cores ≥ threads), and on bank-hot a backoff below the
// runtime's one-microsecond sleep threshold, so a loser yields and retries
// where it would otherwise park for 50 µs–1 ms and conflicts would vanish.
func (w *opsWorkload) options() tl2.Options {
	o := tl2.Options{YieldEvery: -1}
	if w.hot {
		o.BackoffBase = time.Nanosecond
	}
	return o
}

func (w *opsWorkload) newInstance(o tl2.Options) *opsInstance {
	in := &opsInstance{stm: tl2.New(o)}
	if w.hot {
		shared := tl2.NewArray(bankAccounts, bankInitial)
		for t := range in.arr {
			in.arr[t] = shared
		}
		in.want = bankAccounts * bankInitial
		return in
	}
	for t := range in.arr {
		in.arr[t] = tl2.NewArray(ladderWords, ladderInitial)
	}
	in.want = ladderWords * ladderInitial
	return in
}

func (w *opsWorkload) Setup() (*Stages, error) {
	st := &Stages{}
	w.inst = w.newInstance(w.options())
	var err error
	w.ctrl, err = st.train(opsProfile, func(_ int, col *trace.Collector) error {
		b := w.runOn(w.inst, nil, col, nil, Default)
		if b.Failed > 0 {
			return fmt.Errorf("%d of %d operations failed", b.Failed, b.Ops)
		}
		return nil
	})
	return st, err
}

func (w *opsWorkload) Run(m Mode, rec *Recorder) (Block, error) {
	var col *trace.Collector
	if rec != nil {
		col = trace.NewCollector()
	}
	g, tr := wire(m, w.ctrl, rec, col)
	b := w.runOn(w.inst, g, tr, rec, m)
	if rec != nil {
		var aborts [Threads]int
		rec.Observe(m, col, "", &aborts)
		if err := rec.EndBlock(m, &aborts); err != nil {
			return b, err
		}
	}
	return b, nil
}

// worker is one client thread's state for a unit. The transaction bodies
// are methods, so issuing a call allocates nothing.
type worker struct {
	arr    *tl2.Array
	cur    *op
	want   int64
	sink   int64
	failed uint64
}

func (k *worker) transfer(tx *tl2.Tx) error {
	o := k.cur
	for _, i := range o.extra {
		k.sink += k.arr.Get(tx, int(i))
	}
	from, to := k.arr.Get(tx, int(o.from)), k.arr.Get(tx, int(o.to))
	k.arr.Set(tx, int(o.from), from-o.amt)
	k.arr.Set(tx, int(o.to), to+o.amt)
	return nil
}

func (k *worker) hotTransfer(tx *tl2.Tx) error {
	o := k.cur
	from, to := k.arr.Get(tx, int(o.from)), k.arr.Get(tx, int(o.to))
	k.sink += mulAdds(bankBody)
	k.arr.Set(tx, int(o.from), from-o.amt)
	k.arr.Set(tx, int(o.to), to+o.amt)
	return nil
}

func (k *worker) audit(tx *tl2.Tx) error {
	var sum int64
	for i := 0; i < bankAccounts; i++ {
		sum += k.arr.Get(tx, i)
	}
	if sum != k.want {
		return errAudit
	}
	return nil
}

// runOn runs one unit on in with the given gate and tracer installed and
// returns its block.
func (w *opsWorkload) runOn(in *opsInstance, g gate, tr trace.Tracer, rec *Recorder, m Mode) Block {
	s := in.stm
	s.SetGate(g)
	s.SetTracer(tr)
	c0, a0, p0 := s.Commits(), s.Aborts(), s.ProgressStats()

	unit, threadSpan := int32(0), [Threads]int32{}
	if rec != nil {
		unit = rec.BeginUnit(m)
		for t := range threadSpan {
			threadSpan[t] = rec.Open(spThread, m, t, unit)
			rec.Enter(t, threadSpan[t])
		}
	}
	var workers [Threads]worker
	began, took := together(Threads, func(t int) {
		k := &workers[t]
		k.arr, k.want = in.arr[t], in.want
		transfer, audit := k.transfer, k.audit
		if w.hot {
			transfer = k.hotTransfer
		}
		list := w.lists[t]
		for i := range list {
			k.cur = &list[i]
			body := transfer
			if k.cur.tx == txAudit {
				body = audit
			}
			if err := s.Atomic(uint16(t), k.cur.tx, body); err != nil {
				k.failed++
			}
			k.sink += mulAdds(int(k.cur.think))
		}
		spinSink[t].v += k.sink
	})

	b := Block{ThreadTime: make([][]time.Duration, Threads), Ops: Threads * opsPerThread}
	wall := time.Duration(0)
	for t := range took {
		b.ThreadTime[t] = []time.Duration{took[t]}
		wall = max(wall, took[t])
		b.Failed += workers[t].failed
		if rec != nil {
			rec.SetTimes(threadSpan[t], began[t], took[t])
		}
	}
	if rec != nil {
		rec.Close(unit)
	}
	b.UnitWall = []time.Duration{wall}
	b.Commits, b.Aborts = s.Commits()-c0, s.Aborts()-a0
	b.addProgress(p0, s.ProgressStats())
	return b
}

// sums checks the account-sum invariant of an instance's final state.
func (in *opsInstance) sums() error {
	for t, a := range in.arr {
		var sum int64
		for _, v := range a.Snapshot() {
			sum += v
		}
		if sum != in.want {
			return fmt.Errorf("array of thread %d sums to %d, want %d", t, sum, in.want)
		}
	}
	return nil
}

func (w *opsWorkload) Check(def, gui *ModeData, gate GateCounts) []string {
	var bad []string
	if err := w.inst.sums(); err != nil {
		bad = append(bad, err.Error())
	}
	if w.hot {
		// A contended workload that stopped conflicting measures nothing.
		if r := def.AbortsPerCommit(); r <= minHotAbortRatio {
			bad = append(bad, fmt.Sprintf("bank-hot: default aborts/commit %.4f is not above %.2f: the threads no longer overlap", r, minHotAbortRatio))
		}
		if gate.Holds == 0 {
			bad = append(bad, "bank-hot: the gate never held a transaction")
		}
		return bad
	}
	if n := def.Aborts + gui.Aborts; n != 0 {
		bad = append(bad, fmt.Sprintf("ladder-disjoint: %d aborts on disjoint data", n))
	}
	if share := ratio(float64(gate.Holds), float64(gate.Admits)); share >= 0.01 {
		bad = append(bad, fmt.Sprintf("ladder-disjoint: hold share %.4f, want < 0.01", share))
	}
	return bad
}

// minHotAbortRatio is bank-hot's anti-vacuity floor on default-mode
// aborts per commit.
const minHotAbortRatio = 0.02
