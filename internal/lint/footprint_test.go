package lint

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// fixturePath is the footprint unit fixture's import path.
const fixturePath = "gstm/internal/lint/testdata/src/footprint"

func loadFootprintFixture(t *testing.T) *ConflictGraph {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load(filepath.Join("testdata", "src", "footprint"))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Fatalf("fixture does not type-check: %v", terr)
		}
	}
	return Footprint(pkgs, loader.ModuleRoot)
}

// TestFootprintFixture pins the analyzer's core mechanics on the unit
// fixture: parameter and receiver substitution through helpers,
// field-type abstraction, closure capture, and single-assignment alias
// tracing.
func TestFootprintFixture(t *testing.T) {
	g := loadFootprintFixture(t)
	if len(g.Sites) != 2 {
		t.Fatalf("got %d sites, want 2:\n%+v", len(g.Sites), g.Sites)
	}

	run := g.Sites[0]
	if run.Func != "run" || run.TxID != 0 {
		t.Fatalf("site 0 = %s tx %d, want run tx 0", run.Func, run.TxID)
	}
	wantReads := []string{
		fixturePath + ".acct",
		fixturePath + ".audit",
		fixturePath + ".ledger.total",
	}
	wantWrites := []string{
		fixturePath + ".acct",
		fixturePath + ".ledger.total",
	}
	if !reflect.DeepEqual(run.Reads, wantReads) {
		t.Errorf("run reads = %v, want %v", run.Reads, wantReads)
	}
	if !reflect.DeepEqual(run.Writes, wantWrites) {
		t.Errorf("run writes = %v, want %v", run.Writes, wantWrites)
	}
	if len(run.Notes) != 0 {
		t.Errorf("run notes = %v, want none (footprint should be exact)", run.Notes)
	}

	capture := g.Sites[1]
	if capture.Func != "capture" || capture.TxID != 1 {
		t.Fatalf("site 1 = %s tx %d, want capture tx 1", capture.Func, capture.TxID)
	}
	// alias := acct must collapse onto acct; local stays the captured
	// local's identity.
	if want := []string{fixturePath + ".acct"}; !reflect.DeepEqual(capture.Reads, want) {
		t.Errorf("capture reads = %v, want %v", capture.Reads, want)
	}
	if want := []string{fixturePath + ".capture.local"}; !reflect.DeepEqual(capture.Writes, want) {
		t.Errorf("capture writes = %v, want %v", capture.Writes, want)
	}

	// run writes acct, capture reads it: exactly one cross edge (plus
	// the two self edges).
	var cross []ConflictEdge
	for _, e := range g.Edges {
		if e.A != e.B {
			cross = append(cross, e)
		}
	}
	if len(cross) != 1 || cross[0].A != 0 || cross[0].B != 1 ||
		!reflect.DeepEqual(cross[0].Shared, []string{fixturePath + ".acct"}) {
		t.Errorf("cross edges = %+v, want one 0<->1 edge via acct", cross)
	}

	if want := [][2]uint16{{0, 0}, {0, 1}, {1, 1}}; !reflect.DeepEqual(g.TxIDPairs(), want) {
		t.Errorf("TxIDPairs = %v, want %v", g.TxIDPairs(), want)
	}
}

// siteHeader matches a site's header line in the text report:
// "[index] file:line tx label (func, pkg)".
var siteHeader = regexp.MustCompile(`^(\[\d+\] )([^ :]+):\d+( tx .* \()([^,]+)(, .*\))$`)

// withoutLines rewrites a footprint report so that each site is named by
// its file, enclosing function and ordinal among that function's Atomic
// calls instead of by its line: a comment edit that moves a site leaves
// the report equal, while a changed tx, read set or write set does not.
func withoutLines(report string) string {
	ordinal := map[string]int{}
	lines := strings.Split(report, "\n")
	for i, l := range lines {
		m := siteHeader.FindStringSubmatch(l)
		if m == nil {
			continue
		}
		fn := m[2] + " " + m[4]
		lines[i] = fmt.Sprintf("%s%s%s%s#%d%s", m[1], m[2], m[3], m[4], ordinal[fn], m[5])
		ordinal[fn]++
	}
	return strings.Join(lines, "\n")
}

// TestFootprintGolden locks the full report for the repo's real
// workloads against the checked-in golden: the same command the README
// documents (`gstmlint -footprint ./cmd/synquake/... ./examples/...`).
// Sites are compared by file, enclosing function and ordinal, not by
// line, so editing a comment above a site does not fail the test.
// The golden encodes the paper-relevant facts — TxMove and TxAttack
// are statically disjoint while both conflict with TxScore — so an
// accidental footprint regression (a lost field, a widened set) shows
// up as a diff here.
func TestFootprintGolden(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.LoadWithDeps(
		filepath.Join(loader.ModuleRoot, "cmd", "synquake")+string(filepath.Separator)+"...",
		filepath.Join(loader.ModuleRoot, "examples")+string(filepath.Separator)+"...",
	)
	if err != nil {
		t.Fatalf("LoadWithDeps: %v", err)
	}
	g := Footprint(pkgs, loader.ModuleRoot)

	var buf bytes.Buffer
	g.RenderText(&buf)
	golden, err := os.ReadFile(filepath.Join("testdata", "footprint_golden.txt"))
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if got, want := withoutLines(buf.String()), withoutLines(string(golden)); got != want {
		t.Errorf("footprint report drifted from testdata/footprint_golden.txt (line numbers ignored)\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// The headline static fact, asserted directly as well so the test
	// fails meaningfully even if the golden is regenerated carelessly:
	// TxMove (0) and TxAttack (1) in internal/synquake never share
	// storage, while TxScore (2) conflicts with both.
	var move, attack, score = -1, -1, -1
	for i, s := range g.Sites {
		if s.Pkg != "gstm/internal/synquake" {
			continue
		}
		switch s.Tx {
		case "TxMove":
			move = i
		case "TxAttack":
			attack = i
		case "TxScore":
			score = i
		}
	}
	if move < 0 || attack < 0 || score < 0 {
		t.Fatalf("synquake sites not all found: move=%d attack=%d score=%d", move, attack, score)
	}
	edge := func(a, b int) bool {
		if a > b {
			a, b = b, a
		}
		for _, e := range g.Edges {
			if e.A == a && e.B == b {
				return true
			}
		}
		return false
	}
	if edge(move, attack) {
		t.Error("TxMove and TxAttack share static footprint — expected disjoint")
	}
	if !edge(move, score) || !edge(attack, score) {
		t.Error("TxScore should conflict with both TxMove and TxAttack")
	}
	// The relation analyze.CrossCheck is fed needs constant transaction
	// IDs on conflicting sites; the golden text shows labels, not IDs.
	if len(g.TxIDPairs()) == 0 {
		t.Error("conflict graph has no transaction-ID pairs; the entry points regressed")
	}
}

// TestFootprintJSON sanity-checks the JSON rendering round-trips the
// same structure the text report shows.
func TestFootprintJSON(t *testing.T) {
	g := loadFootprintFixture(t)
	var buf bytes.Buffer
	if err := g.RenderJSON(&buf); err != nil {
		t.Fatalf("RenderJSON: %v", err)
	}
	for _, want := range []string{`"file"`, `"reads"`, `"writes"`, fixturePath + ".acct"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("JSON output missing %s:\n%s", want, buf.String())
		}
	}
}
