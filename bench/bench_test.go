package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"gstm/internal/guide"
	"gstm/internal/libtm"
	"gstm/internal/model"
	"gstm/internal/tl2"
	"gstm/internal/trace"
	"gstm/internal/tts"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	if got := percentile([]float64{5, 1, 4, 2, 3}, 50); got != 3 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	// Rank 0.95·3 = 2.85: between 30 and 40.
	if got := percentile([]float64{10, 20, 30, 40}, 95); !near(got, 38.5) {
		t.Errorf("p95 of 10..40 = %v, want 38.5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestMedianCV(t *testing.T) {
	// {1,3,1,3}: mean 2, sample variance 4/3, CV 0.57735. {2,2,2,2}: CV 0.
	// {1,3}: CV √2/2. The median of the three is the first.
	series := [][]float64{{1, 3, 1, 3}, {2, 2, 2, 2}, {1, 3}}
	if got := medianCV(series); !near(got, 0.5773502691896258) {
		t.Errorf("medianCV = %v, want 0.57735", got)
	}
	if got := medianCV(series[:2]); !near(got, 0.5773502691896258/2) {
		t.Errorf("medianCV of two series = %v, want their midpoint", got)
	}
}

func TestSelfTime(t *testing.T) {
	children := []interval{{10, 30}, {20, 40}, {90, 120}, {200, 210}}
	// Covered: 10..40 once, 90..100 after clipping; the last lies outside.
	if got := selfTime(interval{0, 100}, children); got != 60 {
		t.Errorf("selfTime = %d, want 60", got)
	}
	if got := selfTime(interval{0, 100}, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	if got := spread([]float64{1, 2, 3, 4}); !near(got, 1) {
		t.Errorf("spread of 1..4 = %v, want 1", got)
	}
}

// listHash identifies a workload's generated operation lists.
func listHash(w *opsWorkload) uint64 {
	h := fnv.New64a()
	for _, list := range w.lists {
		for _, o := range list {
			fmt.Fprintf(h, "%+v;", o)
		}
	}
	return h.Sum64()
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range []string{"ladder-disjoint", "bank-hot"} {
		a, b, c := newOps(name, 7), newOps(name, 7), newOps(name, 8)
		if listHash(a) != listHash(b) {
			t.Errorf("%s: seed 7 generated two different operation lists", name)
		}
		if listHash(a) == listHash(c) {
			t.Errorf("%s: seeds 7 and 8 generated the same operation lists", name)
		}
	}
}

// The wrappers must satisfy every gate interface of both runtimes, or an
// escalated or shed transaction would bypass the controller when traced.
var (
	_ tl2.IrrevocableGate   = (*gateWrap)(nil)
	_ tl2.ShedGate          = (*gateWrap)(nil)
	_ libtm.IrrevocableGate = (*gateWrap)(nil)
	_ libtm.ShedGate        = (*gateWrap)(nil)
)

func TestWrappersAreTransparent(t *testing.T) {
	a, b := tts.Pair{Tx: 0, Thread: 0}, tts.Pair{Tx: 0, Thread: 1}
	// Every transition is equally likely, so nothing is ever held and the
	// controller's counters depend on the call sequence alone.
	var seq []tts.State
	for _, p := range []tts.Pair{a, b, a, b, a, a, b, b, a} {
		seq = append(seq, tts.State{Commit: p})
	}
	m := model.Build(Threads, seq)
	drive := func(g interface {
		gate
		tl2.IrrevocableGate
		tl2.ShedGate
	}, tr trace.Tracer) {
		for i := uint64(1); i <= 200; i++ {
			p, q := a, b
			if i%3 == 0 {
				p, q = b, a
			}
			g.Admit(p)
			if i%5 == 0 {
				// Killed by the previous commit, then retried.
				tr.OnAbort(p, i-1)
				g.Admit(p)
			}
			if i%7 == 0 {
				g.AdmitIrrevocable(p)
			}
			if i%11 == 0 {
				g.NoteShed(q)
			}
			tr.OnCommit(i, p)
		}
	}
	bare := guide.New(m, guide.Options{})
	drive(bare, bare)
	wrapped := guide.New(m, guide.Options{})
	rec := NewRecorder()
	rec.BeginUnit(Guided)
	drive(&gateWrap{rec, wrapped}, &tracerWrap{rec, wrapped, trace.NewCollector()})

	want, got := bare.Stats(), wrapped.Stats()
	if want.IrrevocableAdmits == 0 || want.Sheds == 0 || want.Admits == 0 {
		t.Fatalf("the scenario exercises nothing: %+v", want)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("controller counters differ behind the wrappers:\nbare    %+v\nwrapped %+v", want, got)
	}
	// 66 of the 200 transactions ran on thread 1; each thread samples its own.
	tx, _ := rec.sum(Guided, spTx)
	if want := uint64(134/sampleEvery + 66/sampleEvery); tx.calls != 200 || tx.sampled != want {
		t.Errorf("recorder saw %d transactions and sampled %d, want 200 and %d", tx.calls, tx.sampled, want)
	}
}

func metricNames(defs []MetricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

func TestSmokeAllWorkloads(t *testing.T) {
	runs := []struct {
		workload string
		trace    bool
	}{
		{"ladder-disjoint", false}, {"bank-hot", false}, {"stamp-suite", false}, {"synquake-quadrants", false},
		{"bank-hot", true}, {"synquake-quadrants", true},
	}
	for _, r := range runs {
		res, _, problems, err := Run(Config{
			Workload: r.workload, Seed: 3, Seconds: 0.15, Trace: r.trace, Rounds: 1, TraceDir: t.TempDir(), Log: io.Discard,
		})
		if err != nil {
			t.Fatalf("%s trace=%v: %v", r.workload, r.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d problems=%v", r.workload, r.trace, res.Correct, res.Failed, res.Attempted, problems)
		}
		defs := EndToEnd
		if r.trace {
			defs = PerLayer
		}
		var got []string
		for name, m := range res.Metrics {
			got = append(got, name)
			if !r.trace && m.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", r.workload, name)
			}
		}
		sort.Strings(got)
		if want := metricNames(defs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s trace=%v: emitted metrics %v, want %v", r.workload, r.trace, got, want)
		}
	}
}

// BENCHMARK.json is what the driver reads; the tables in this package are
// what the code emits. They must not drift apart.
func TestBenchmarkJSONIsFresh(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", len(keys))
	}
	var got Manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := Describe(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the code; regenerate it with `gstmbench -describe`\n got %+v\nwant %+v", got, want)
	}
	var names []string
	for _, w := range got.Workloads {
		names = append(names, w.Name)
		if _, err := NewWorkload(w.Name, 1); err != nil {
			t.Error(err)
		}
	}
	if !reflect.DeepEqual(names, WorkloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, WorkloadNames)
	}
}

func TestCompare(t *testing.T) {
	rec := func(tx, slowdown float64, degraded bool) Record {
		return Record{Workload: "bank-hot", Host: Host{Degraded: degraded}, Result: Result{Correct: true, Attempted: 1, Metrics: map[string]Metric{
			"default_tx_per_s": {tx, "1/s"},
			"guided_slowdown":  {slowdown, "ratio"},
		}}}
	}
	base := []Record{rec(100, 1.20, false), rec(102, 1.22, false), rec(98, 1.18, false)}
	// Throughput down 20 % and slowdown up 10 % stay inside 25 % and 15 %.
	if ok, err := Compare(io.Discard, base, []Record{rec(80, 1.32, false)}); err != nil || !ok {
		t.Errorf("a change inside every bound: ok=%v err=%v", ok, err)
	}
	var out bytes.Buffer
	if ok, err := Compare(&out, base, []Record{rec(100, 1.44, false)}); err != nil || ok {
		t.Errorf("slowdown up 20 %% must fail: ok=%v err=%v", ok, err)
	}
	if !bytes.Contains(out.Bytes(), []byte("REGRESSION")) {
		t.Errorf("the report does not name the regression:\n%s", out.String())
	}
	if _, err := Compare(io.Discard, base, []Record{rec(100, 1.20, true)}); err == nil {
		t.Error("a degraded host must be refused")
	}
}
