package bench

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gstm/internal/guide"
	"gstm/internal/stats"
	"gstm/internal/trace"
	"gstm/internal/tts"
)

// spanKind names a span. The first three are recorded by the driver, the
// rest by the wrapping gate and tracer on the thread that runs the call.
type spanKind uint8

const (
	spUnit spanKind = iota
	spPart
	spThread
	spTx
	spAdmit
	spGuideCommit
	spGuideAbort
	spColCommit
	spColAbort
	nKinds
)

var spanNames = [nKinds]string{
	"unit", "stamp.Run", "thread", "stm.tx", "guide.Admit", "guide.OnCommit",
	"guide.OnAbort", "trace.Collector.OnCommit", "trace.Collector.OnAbort",
}

const (
	// sampleEvery: every transaction is counted, one in sampleEvery is
	// timed and kept as a span with its children.
	sampleEvery = 16
	// maxThreadSpans bounds the spans one thread keeps for the trace file;
	// later spans still feed the aggregates and are counted as dropped.
	maxThreadSpans = 1 << 14
	// maxSamples bounds the durations kept per thread, mode and kind for
	// percentiles: enough for ten samples beyond p99.9.
	maxSamples = 1 << 16
	noParent   = -1 << 31
)

// span is one timed interval. parent ≥ 0 indexes the same buffer, a
// negative parent -(i+1) indexes the driver buffer.
type span struct {
	kind       spanKind
	mode       Mode
	thread     int16
	unit       int32
	parent     int32
	start, end int64
}

// agg sums one kind of call on one thread in one mode.
type agg struct {
	calls, sampled uint64
	ns             int64
	samples        []int32
}

func (a *agg) add(ns int64) {
	a.sampled++
	a.ns += ns
	if len(a.samples) < cap(a.samples) {
		a.samples = append(a.samples, int32(min(ns, 1<<31-1)))
	}
}

// threadRec is the part of the recorder one client thread writes. Gate and
// tracer calls for a pair arrive on the goroutine running that pair's
// thread, so it needs no lock.
type threadRec struct {
	rec       *Recorder
	thread    int16
	mode      Mode
	unit      int32
	container int32 // driver span this thread currently runs under
	txs       uint32
	open      bool // between a transaction's first Admit and its commit
	sampled   bool
	tx        int32 // open stm.tx span, or noParent when the buffer is full
	txStart   int64
	spans     []span
	dropped   int
	agg       [2][nKinds]agg
	_         [64]byte
}

func (t *threadRec) push(kind spanKind, parent int32, start, end int64) int32 {
	t.agg[t.mode][kind].add(end - start)
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return noParent
	}
	t.spans = append(t.spans, span{kind, t.mode, t.thread, t.unit, parent, start, end})
	return int32(len(t.spans) - 1)
}

// begin opens a transaction at its first gate call and decides whether it
// is sampled.
func (t *threadRec) begin() {
	t.open = true
	t.txs++
	t.agg[t.mode][spTx].calls++
	t.sampled = t.txs%sampleEvery == 0
	if t.sampled {
		t.txStart = t.rec.now()
		t.tx = noParent
		if len(t.spans) < cap(t.spans) {
			// Reserve the slot now so children can name their parent; end
			// and the aggregate are filled in when the transaction commits.
			t.spans = append(t.spans, span{spTx, t.mode, t.thread, t.unit, -(t.container + 1), t.txStart, t.txStart})
			t.tx = int32(len(t.spans) - 1)
		} else {
			t.dropped++
		}
	}
}

// child records a timed call made inside the open transaction.
func (t *threadRec) child(kind spanKind, start int64) {
	parent := t.tx
	if parent == noParent {
		parent = -(t.container + 1)
	}
	t.push(kind, parent, start, t.rec.now())
}

func (t *threadRec) endTx() {
	end := t.rec.now()
	t.agg[t.mode][spTx].add(end - t.txStart)
	if t.tx != noParent {
		t.spans[t.tx].end = end
	}
}

// Recorder holds the spans and counts of one traced pass in preallocated
// buffers and writes them out when the benchmark ends.
type Recorder struct {
	epoch   time.Time
	driver  []span
	threads [Threads]*threadRec
	units   int32
	// The paper's outcome quantities, from a Collector attached to every
	// traced block: distinct thread transactional states and per-thread
	// abort counts per block.
	states    [2]map[string]struct{}
	abortHist [2][Threads]*stats.Histogram
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder {
	r := &Recorder{epoch: time.Now(), driver: make([]span, 0, 1<<12)}
	for t := range r.threads {
		tr := &threadRec{rec: r, thread: int16(t), spans: make([]span, 0, maxThreadSpans)}
		for m := range tr.agg {
			for k := range tr.agg[m] {
				tr.agg[m][k].samples = make([]int32, 0, maxSamples)
			}
		}
		r.threads[t] = tr
	}
	for m := range r.states {
		r.states[m] = make(map[string]struct{})
		for t := range r.abortHist[m] {
			r.abortHist[m][t] = stats.NewHistogram()
		}
	}
	return r
}

func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// BeginUnit opens the span of one block run in mode m. Called by the
// driver between blocks, never while client threads run.
func (r *Recorder) BeginUnit(m Mode) int32 {
	r.units++
	for _, t := range r.threads {
		t.mode, t.unit, t.open = m, r.units, false
	}
	return r.Open(spUnit, m, -1, noParent)
}

// Open starts a driver span and returns its index; parent is a driver
// index or noParent.
func (r *Recorder) Open(kind spanKind, m Mode, thread int, parent int32) int32 {
	now := r.now()
	r.driver = append(r.driver, span{kind, m, int16(thread), r.units, parent, now, now})
	return int32(len(r.driver) - 1)
}

// Close ends a driver span now.
func (r *Recorder) Close(i int32) { r.driver[i].end = r.now() }

// SetTimes replaces a driver span's interval with times measured elsewhere
// (a client thread times its own body).
func (r *Recorder) SetTimes(i int32, start time.Time, d time.Duration) {
	r.driver[i].start = int64(start.Sub(r.epoch))
	r.driver[i].end = r.driver[i].start + int64(d)
}

// Enter makes driver span i the parent of what thread records next.
func (r *Recorder) Enter(thread int, i int32) { r.threads[thread].container = i }

// Observe folds the events a Collector saw during one block into the
// paper's outcome quantities. prefix keeps the states of different
// programs (STAMP kernels) apart.
func (r *Recorder) Observe(m Mode, col *trace.Collector, prefix string, aborts *[Threads]int) {
	seq, _ := col.Sequence()
	for i := range seq {
		r.states[m][prefix+seq[i].Key()] = struct{}{}
	}
	for thread, n := range col.AbortCountByThread() {
		if int(thread) < Threads {
			aborts[thread] += n
		}
	}
}

// EndBlock adds one block's per-thread abort counts to the abort
// distribution of mode m.
func (r *Recorder) EndBlock(m Mode, aborts *[Threads]int) error {
	for t, n := range aborts {
		if err := r.abortHist[m][t].Add(n); err != nil {
			return err
		}
	}
	return nil
}

// sum merges one kind's aggregates over all threads in mode m; the samples
// are converted to float nanoseconds for percentiles.
func (r *Recorder) sum(m Mode, kind spanKind) (a agg, samples []float64) {
	for _, t := range r.threads {
		ta := &t.agg[m][kind]
		a.calls += ta.calls
		a.sampled += ta.sampled
		a.ns += ta.ns
		for _, s := range ta.samples {
			samples = append(samples, float64(s))
		}
	}
	return a, samples
}

// txSelfNs is the mean self time of the kept transaction spans of mode m:
// the span minus the gate and tracer calls made inside it, which is what
// the runtime itself spent on the transaction.
func (r *Recorder) txSelfNs(m Mode) float64 {
	var self, n float64
	for _, t := range r.threads {
		children := make(map[int32][]interval)
		for _, s := range t.spans {
			if s.parent >= 0 {
				children[s.parent] = append(children[s.parent], interval{s.start, s.end})
			}
		}
		for i, s := range t.spans {
			if s.kind == spTx && s.mode == m && s.end > s.start {
				self += float64(selfTime(interval{s.start, s.end}, children[int32(i)]))
				n++
			}
		}
	}
	return ratio(self, n)
}

// gate is the method set tl2.Gate and libtm.Gate share.
type gate interface{ Admit(p tts.Pair) }

// wire returns the gate and tracer to install on an STM for one block:
// nothing in default mode, the controller as both in guided mode (the
// gstm.Guide wiring). With a recorder both modes get the wrapping pair, so
// that transactions are timed the same way whether or not a controller is
// behind it, and col receives the event stream.
func wire(m Mode, ctrl *guide.Controller, rec *Recorder, col *trace.Collector) (gate, trace.Tracer) {
	if m == Guided {
		ctrl.Reset()
	} else {
		ctrl = nil
	}
	if rec == nil {
		if ctrl == nil {
			return nil, nil
		}
		return ctrl, ctrl
	}
	return &gateWrap{rec, ctrl}, &tracerWrap{rec, ctrl, col}
}

// gateWrap times the controller's gate calls. It forwards the optional
// gate interfaces of both runtimes, so an escalated or shed transaction is
// counted by the controller exactly as without the wrapper.
type gateWrap struct {
	rec   *Recorder
	inner *guide.Controller // nil in default mode
}

func (w *gateWrap) Admit(p tts.Pair) { w.admit(p, (*guide.Controller).Admit) }

func (w *gateWrap) AdmitIrrevocable(p tts.Pair) { w.admit(p, (*guide.Controller).AdmitIrrevocable) }

func (w *gateWrap) NoteShed(p tts.Pair) {
	if w.inner != nil {
		w.inner.NoteShed(p)
	}
}

func (w *gateWrap) admit(p tts.Pair, call func(*guide.Controller, tts.Pair)) {
	t := w.rec.threads[p.Thread]
	if !t.open {
		t.begin()
	}
	if w.inner == nil {
		return
	}
	t.agg[t.mode][spAdmit].calls++
	if !t.sampled {
		call(w.inner, p)
		return
	}
	start := w.rec.now()
	call(w.inner, p)
	t.child(spAdmit, start)
}

// tracerWrap times the controller's and the collector's event calls and
// closes the transaction span. The transaction ends before the collector
// is called: the collector is measurement, not the system under test.
type tracerWrap struct {
	rec  *Recorder
	ctrl *guide.Controller // nil in default mode
	col  *trace.Collector
}

func (w *tracerWrap) OnCommit(instance uint64, p tts.Pair) {
	t := w.rec.threads[p.Thread]
	if !t.open {
		t.begin()
	}
	t.open = false
	a := &t.agg[t.mode]
	a[spColCommit].calls++
	if w.ctrl != nil {
		a[spGuideCommit].calls++
	}
	if !t.sampled {
		if w.ctrl != nil {
			w.ctrl.OnCommit(instance, p)
		}
		w.col.OnCommit(instance, p)
		return
	}
	if w.ctrl != nil {
		start := w.rec.now()
		w.ctrl.OnCommit(instance, p)
		t.child(spGuideCommit, start)
	}
	t.endTx()
	start := w.rec.now()
	w.col.OnCommit(instance, p)
	t.push(spColCommit, -(t.container + 1), start, w.rec.now())
}

func (w *tracerWrap) OnAbort(p tts.Pair, killer uint64) {
	t := w.rec.threads[p.Thread]
	a := &t.agg[t.mode]
	a[spColAbort].calls++
	if w.ctrl != nil {
		a[spGuideAbort].calls++
	}
	if !t.open || !t.sampled {
		if w.ctrl != nil {
			w.ctrl.OnAbort(p, killer)
		}
		w.col.OnAbort(p, killer)
		return
	}
	if w.ctrl != nil {
		start := w.rec.now()
		w.ctrl.OnAbort(p, killer)
		t.child(spGuideAbort, start)
	}
	start := w.rec.now()
	w.col.OnAbort(p, killer)
	t.child(spColAbort, start)
}

// WriteTrace writes every kept span as one JSON document. Ids are unique
// in the file; a span's parent is the id of the span that caused it, and
// spans of one block share its unit number.
func (r *Recorder) WriteTrace(path, workload string, seed int64, setup []SetupSpan) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	dropped := 0
	for _, t := range r.threads {
		dropped += t.dropped
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"sample_every\":%d,\"dropped_spans\":%d,\n\"setup\":[", workload, seed, sampleEvery, dropped)
	for i, s := range setup {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}", s.Name, s.Start.Sub(r.epoch), s.Start.Add(s.Dur).Sub(r.epoch))
	}
	w.WriteString("],\n\"spans\":[")
	// Driver spans take ids 1..len(driver); thread t's spans follow.
	base := int32(1)
	first := true
	emit := func(buf []span, base int32) {
		for i, s := range buf {
			parent := int32(0)
			switch {
			case s.parent >= 0:
				parent = base + s.parent
			case s.parent != noParent:
				parent = -s.parent // driver span i is stored as -(i+1) and has id i+1
			}
			if !first {
				w.WriteByte(',')
			}
			first = false
			fmt.Fprintf(w, "\n{\"id\":%d,\"parent\":%d,\"name\":%q,\"mode\":%q,\"unit\":%d,\"thread\":%d,\"start_ns\":%d,\"end_ns\":%d}",
				base+int32(i), parent, spanNames[s.kind], s.mode, s.unit, s.thread, s.start, s.end)
		}
	}
	emit(r.driver, base)
	base += int32(len(r.driver))
	for _, t := range r.threads {
		emit(t.spans, base)
		base += int32(len(t.spans))
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
