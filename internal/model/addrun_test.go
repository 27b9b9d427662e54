package model

import (
	"bytes"
	"math/rand"
	"testing"

	"gstm/internal/race"
	"gstm/internal/tts"
)

// refAddRun is the reference fold AddRun must reproduce: one key built
// per state, the previous state's node looked up by its key.
func refAddRun(m *TSA, seq []tts.State) {
	var prevKey string
	for i, st := range seq {
		key := st.Key()
		m.ensure(key, st)
		if i > 0 {
			from := m.Nodes[prevKey]
			from.Out[key]++
			from.Total++
		}
		prevKey = key
	}
}

// quakeSeq is a two-thread, three-transaction sequence of the length of
// one SynQuake profile run: mostly singleton commits, some with one or
// two victims, a few abort lists out of canonical order.
func quakeSeq(rng *rand.Rand, n int) []tts.State {
	seq := make([]tts.State, n)
	pair := func() tts.Pair {
		return tts.Pair{Tx: uint16(rng.Intn(3)), Thread: uint16(rng.Intn(2))}
	}
	for i := range seq {
		seq[i].Commit = pair()
		switch r := rng.Intn(10); {
		case r < 2:
			seq[i].Aborts = []tts.Pair{pair()}
		case r == 2:
			seq[i].Aborts = []tts.Pair{pair(), pair()}
		}
	}
	return seq
}

// TestAddRunMatchesReference: folding recorded-size runs gives the
// byte-identical encoded model the reference fold gives.
func TestAddRunMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	runs := [][]tts.State{quakeSeq(rng, 60000), quakeSeq(rng, 60000), mkSeq(), mkSeq(4)}
	got, want := New(2), New(2)
	for _, seq := range runs {
		got.AddRun(seq)
		refAddRun(want, seq)
	}
	var gb, wb bytes.Buffer
	if err := got.Encode(&gb); err != nil {
		t.Fatal(err)
	}
	if err := want.Encode(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("AddRun encodes to %d bytes that differ from the reference's %d", gb.Len(), wb.Len())
	}
	for key, n := range got.Nodes {
		if n.Key != key {
			t.Fatalf("node under key %q carries Key %q", key, n.Key)
		}
	}
}

// TestAddRunAllocations: a run whose states and transitions the model
// holds already allocates nothing.
func TestAddRunAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	rng := rand.New(rand.NewSource(46))
	seq := quakeSeq(rng, 5000)
	for i := range seq {
		seq[i].Canonicalize()
	}
	m := New(2)
	m.AddRun(seq)
	if avg := testing.AllocsPerRun(10, func() { m.AddRun(seq) }); avg != 0 {
		t.Errorf("AddRun over known states allocates %.1f times per run, want 0", avg)
	}
}

var modelSink *TSA

// BenchmarkAddRun times folding one SynQuake-sized profile run into a
// fresh model.
func BenchmarkAddRun(b *testing.B) {
	rng := rand.New(rand.NewSource(47))
	seq := quakeSeq(rng, 75000)
	for i := range seq {
		seq[i].Canonicalize()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		modelSink = New(2)
		modelSink.AddRun(seq)
	}
}
