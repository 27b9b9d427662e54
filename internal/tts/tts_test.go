package tts

import (
	"gstm/internal/proptest"
	"math/rand"
	"testing"
	"testing/quick"

	"gstm/internal/race"
)

func TestPairKeyRoundtrip(t *testing.T) {
	f := func(tx, th uint16) bool {
		p := Pair{Tx: tx, Thread: th}
		return PairFromKey(p.Key()) == p
	}
	if err := quick.Check(f, proptest.Config(t, 0)); err != nil {
		t.Error(err)
	}
}

func TestPairString(t *testing.T) {
	cases := []struct {
		p    Pair
		want string
	}{
		{Pair{0, 6}, "a6"},
		{Pair{1, 7}, "b7"},
		{Pair{25, 0}, "z0"},
		{Pair{26, 3}, "t26_3"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.p, got, c.want)
		}
	}
}

func TestStateKeyRoundtrip(t *testing.T) {
	st := State{
		Commit: Pair{3, 7},
		Aborts: []Pair{{0, 1}, {2, 5}, {0, 4}},
	}
	got, err := ParseKey(st.Key())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(st) {
		t.Errorf("roundtrip mismatch: %v vs %v", got, st)
	}
	// Roundtripped aborts come back canonically sorted.
	if got.Aborts[0] != (Pair{0, 1}) || got.Aborts[1] != (Pair{0, 4}) || got.Aborts[2] != (Pair{2, 5}) {
		t.Errorf("aborts not canonical: %v", got.Aborts)
	}
}

func TestStateKeyCanonicalUnderPermutation(t *testing.T) {
	base := []Pair{{0, 1}, {1, 2}, {2, 3}, {0, 9}}
	want := State{Commit: Pair{5, 0}, Aborts: base}.Key()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		perm := append([]Pair(nil), base...)
		rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		if got := (State{Commit: Pair{5, 0}, Aborts: perm}).Key(); got != want {
			t.Fatalf("permuted aborts produced different key")
		}
	}
}

func TestStateKeyDoesNotMutate(t *testing.T) {
	aborts := []Pair{{9, 9}, {0, 0}}
	st := State{Commit: Pair{1, 1}, Aborts: aborts}
	_ = st.Key()
	if aborts[0] != (Pair{9, 9}) {
		t.Error("Key mutated the caller's abort slice")
	}
}

func TestParseKeyErrors(t *testing.T) {
	for _, bad := range []string{"", "abc", "abcde"} {
		if _, err := ParseKey(bad); err == nil {
			t.Errorf("ParseKey(%q) expected error", bad)
		}
	}
}

func TestSingletonState(t *testing.T) {
	st := State{Commit: Pair{2, 3}}
	if got := st.String(); got != "{<c3>}" {
		t.Errorf("String = %q, want {<c3>}", got)
	}
	rt, err := ParseKey(st.Key())
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Aborts) != 0 || rt.Commit != st.Commit {
		t.Errorf("roundtrip = %+v", rt)
	}
}

func TestStateStringPaperNotation(t *testing.T) {
	// The paper's example: threads 1,2,3 aborted running a,b,c by
	// thread 4 committing d → {<a1 b2 c3>, <d4>}.
	st := State{
		Commit: Pair{3, 4},
		Aborts: []Pair{{2, 3}, {0, 1}, {1, 2}},
	}
	if got := st.String(); got != "{<a1 b2 c3>, <d4>}" {
		t.Errorf("String = %q", got)
	}
}

func TestPairs(t *testing.T) {
	st := State{Commit: Pair{1, 0}, Aborts: []Pair{{0, 2}, {0, 3}}}
	ps := st.Pairs()
	if len(ps) != 3 {
		t.Fatalf("Pairs len = %d", len(ps))
	}
	seen := map[Pair]bool{}
	for _, p := range ps {
		seen[p] = true
	}
	if !seen[st.Commit] || !seen[Pair{0, 2}] || !seen[Pair{0, 3}] {
		t.Error("Pairs missing a participant")
	}
}

// Property: Key is injective over distinct canonical states and
// roundtrips exactly.
func TestKeyRoundtripProperty(t *testing.T) {
	f := func(ctx, cth uint16, rawAborts []uint32) bool {
		st := State{Commit: Pair{ctx, cth}}
		seen := map[uint32]bool{}
		for _, r := range rawAborts {
			if len(st.Aborts) >= 16 {
				break
			}
			if seen[r] {
				continue // duplicate pairs are legal but make the injectivity check noisy
			}
			seen[r] = true
			st.Aborts = append(st.Aborts, PairFromKey(r))
		}
		rt, err := ParseKey(st.Key())
		if err != nil {
			return false
		}
		return rt.Equal(st) && rt.Key() == st.Key()
	}
	if err := quick.Check(f, proptest.Config(t, 200)); err != nil {
		t.Error(err)
	}
}

func TestEqualDisregardsOrderOnly(t *testing.T) {
	a := State{Commit: Pair{1, 1}, Aborts: []Pair{{2, 2}, {3, 3}}}
	b := State{Commit: Pair{1, 1}, Aborts: []Pair{{3, 3}, {2, 2}}}
	c := State{Commit: Pair{1, 1}, Aborts: []Pair{{2, 2}}}
	if !a.Equal(b) {
		t.Error("order must not matter")
	}
	if a.Equal(c) {
		t.Error("different abort sets must differ")
	}
}

// TestAppendKey: AppendKey extends dst by exactly Key, sorted or not,
// and into a buffer with room it allocates nothing.
func TestAppendKey(t *testing.T) {
	s := State{Commit: Pair{Tx: 3, Thread: 1}, Aborts: []Pair{{Tx: 2, Thread: 0}, {Tx: 1, Thread: 5}}}
	prefix := []byte("xy")
	if got := s.AppendKey(prefix); string(got) != "xy"+s.Key() {
		t.Errorf("AppendKey = %q, want %q", got, "xy"+s.Key())
	}
	s.Canonicalize()
	buf := make([]byte, 0, 64)
	if race.Enabled {
		return // race instrumentation allocates; AllocsPerRun is meaningless under -race
	}
	if avg := testing.AllocsPerRun(100, func() { buf = s.AppendKey(buf[:0]) }); avg != 0 {
		t.Errorf("AppendKey allocates %.1f times, want 0", avg)
	}
}
