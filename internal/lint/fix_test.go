package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fixGoldens names the fixture packages whose checkers attach
// machine-applicable fixes; the fixed output is locked as a real,
// type-checking package under testdata/src/fixed/<name>. Regenerate
// with GSTM_UPDATE_GOLDEN=1.
var fixGoldens = []string{"droppederr", "deadread", "ctxatomic"}

// TestApplyFixesGolden applies every suggested fix of the fixable
// fixtures and compares the rewritten files byte-for-byte against the
// checked-in fixed packages.
func TestApplyFixesGolden(t *testing.T) {
	update := os.Getenv("GSTM_UPDATE_GOLDEN") != ""
	loader := fixtureLoader(t)
	for _, name := range fixGoldens {
		t.Run(name, func(t *testing.T) {
			pkgs, err := loader.Load(filepath.Join("testdata", "src", name))
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			fixed, err := ApplyFixes(Run(pkgs, nil))
			if err != nil {
				t.Fatalf("ApplyFixes: %v", err)
			}
			if len(fixed) == 0 {
				t.Fatal("fixture produced no fixable diagnostics")
			}
			for file, got := range fixed {
				goldenPath := filepath.Join("testdata", "src", "fixed", name, filepath.Base(file))
				if update {
					if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(goldenPath)
				if err != nil {
					t.Fatalf("reading golden (regenerate with GSTM_UPDATE_GOLDEN=1): %v", err)
				}
				if !bytes.Equal(got, want) {
					var diff bytes.Buffer
					RenderDiff(&diff, filepath.Base(file), want, got)
					t.Errorf("fixed output drifted from %s:\n%s", goldenPath, diff.String())
				}
			}
		})
	}
}

// TestFixedGoldensAreFixedPoints re-lints the fixed packages: a second
// pass must find nothing left to fix (diagnostics without fixes — the
// go/defer forms — may remain; that is the point of only attaching
// fixes where the rewrite is mechanical).
func TestFixedGoldensAreFixedPoints(t *testing.T) {
	loader := fixtureLoader(t)
	for _, name := range fixGoldens {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", "fixed", name)
			pkgs, err := loader.Load(dir)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			for _, pkg := range pkgs {
				for _, terr := range pkg.TypeErrors {
					t.Errorf("fixed package does not type-check: %v", terr)
				}
			}
			for _, d := range Run(pkgs, nil) {
				if d.Fix != nil {
					t.Errorf("fixed package still has a fixable diagnostic: %s", d)
				}
			}
		})
	}
}

// TestApplyEditsEdgeCases pins the edit-application mechanics directly:
// dedupe of identical edits, first-wins overlap resolution, and
// whole-line expansion of deletions that leave only a trailing comment.
func TestApplyEditsEdgeCases(t *testing.T) {
	src := []byte("a := 1\n\tb() // trailing\nc := 2\n")
	bOff := bytes.Index(src, []byte("b()"))
	del := TextEdit{File: "x.go", Offset: bOff, End: bOff + 3}
	out, err := applyEdits(src, []TextEdit{del, del})
	if err != nil {
		t.Fatalf("applyEdits: %v", err)
	}
	if got, want := string(out), "a := 1\nc := 2\n"; got != want {
		t.Errorf("deletion = %q, want %q (whole line including trailing comment)", got, want)
	}

	first := TextEdit{File: "x.go", Offset: 0, End: 6, NewText: "z := 9"}
	second := TextEdit{File: "x.go", Offset: 3, End: 8, NewText: "!"}
	out, err = applyEdits(src, []TextEdit{first, second})
	if err != nil {
		t.Fatalf("applyEdits: %v", err)
	}
	if !bytes.HasPrefix(out, []byte("z := 9\n")) {
		t.Errorf("overlap resolution kept %q, want the first edit to win", out[:7])
	}

	if _, err := applyEdits(src, []TextEdit{{File: "x.go", Offset: 5, End: len(src) + 1}}); err == nil {
		t.Error("out-of-bounds edit did not error")
	}
}

// TestRenderDiff pins the compact diff format -fix -diff prints.
func TestRenderDiff(t *testing.T) {
	before := []byte("one\ntwo\nthree\n")
	after := []byte("one\nTWO\nthree\n")
	var buf bytes.Buffer
	RenderDiff(&buf, "f.go", before, after)
	want := "--- a/f.go\n+++ b/f.go\n@@ -2,1 +2,1 @@\n-two\n+TWO\n"
	if buf.String() != want {
		t.Errorf("diff = %q, want %q", buf.String(), want)
	}
	buf.Reset()
	RenderDiff(&buf, "f.go", before, before)
	if buf.Len() != 0 {
		t.Errorf("identical inputs produced a diff: %q", buf.String())
	}
}

// TestDuplicateLoadPathsCollapse guards satellite determinism: the same
// fixture loaded through two paths in one Run must yield exactly the
// diagnostics of a single load — positions, checks and messages — with
// directives honored once, not twice.
func TestDuplicateLoadPathsCollapse(t *testing.T) {
	loader := fixtureLoader(t)
	dir := filepath.Join("testdata", "src", "ignore")
	once, err := loader.Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	again, err := loader.Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	render := func(diags []Diagnostic) []string {
		var out []string
		for _, d := range diags {
			out = append(out, d.String())
		}
		return out
	}
	single := render(Run(once, nil))
	double := render(Run(append(once, again...), nil))
	if !reflect.DeepEqual(single, double) {
		t.Errorf("duplicate load paths changed the result:\nonce:  %s\ntwice: %s",
			strings.Join(single, "\n       "), strings.Join(double, "\n       "))
	}
}

// TestSortDiagsTotalOrder pins the tiebreak chain: position, then
// check, then message.
func TestSortDiagsTotalOrder(t *testing.T) {
	mk := func(file string, line, col int, check, msg string) Diagnostic {
		d := Diagnostic{Check: check, Message: msg}
		d.Position.Filename = file
		d.Position.Line = line
		d.Position.Column = col
		return d
	}
	diags := []Diagnostic{
		mk("a.go", 1, 1, "gstm006", "zeta"),
		mk("b.go", 1, 1, "gstm001", "a"),
		mk("a.go", 1, 1, "gstm006", "alpha"),
		mk("a.go", 1, 1, "gstm005", "m"),
	}
	sortDiags(diags)
	want := []string{"gstm005:m", "gstm006:alpha", "gstm006:zeta", "gstm001:a"}
	for i, d := range diags {
		if got := d.Check + ":" + d.Message; got != want[i] {
			t.Errorf("position %d: got %s, want %s", i, got, want[i])
		}
	}
}
