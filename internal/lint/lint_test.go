package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// fixtureDirs lists the golden fixture packages: one positive package
// per checker plus the clean negative package.
var fixtureDirs = []string{
	"retryunsafe",
	"txescape",
	"rawvar",
	"nestedatomic",
	"droppederr",
	"transitive",
	"deadread",
	"ctxatomic",
	"unboundedloop",
	"hygiene",
	"clean",
}

// wantRE matches expectation comments: `// want "gstm001" "gstm002"`.
var wantRE = regexp.MustCompile(`want((?:\s+"[^"]+")+)`)

// TestFixtures runs every registered checker over the golden fixture
// packages and matches the diagnostics, line by line, against the
// fixtures' `// want "gstmNNN"` comments — in both directions: an
// unexpected diagnostic fails, and an unmatched expectation fails.
func TestFixtures(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	var patterns []string
	for _, d := range fixtureDirs {
		patterns = append(patterns, filepath.Join("testdata", "src", d))
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != len(fixtureDirs) {
		t.Fatalf("loaded %d packages, want %d", len(pkgs), len(fixtureDirs))
	}

	// Fixtures must fully type-check: a fixture that does not compile
	// would silently weaken the expectations.
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("fixture %s does not type-check: %v", pkg.Path, terr)
		}
	}

	// Collect the expectations from the fixtures' want comments.
	type key struct {
		file string
		line int
	}
	want := map[key][]string{}
	total := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, q := range strings.Fields(m[1]) {
						want[key{pos.Filename, pos.Line}] = append(
							want[key{pos.Filename, pos.Line}], strings.Trim(q, `"`))
						total++
					}
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no want expectations found in fixtures")
	}

	for _, d := range Run(pkgs, nil) {
		k := key{d.Position.Filename, d.Position.Line}
		ids := want[k]
		matched := -1
		for i, id := range ids {
			if id == d.Check {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic %s", d)
			continue
		}
		want[k] = append(ids[:matched], ids[matched+1:]...)
	}
	for k, ids := range want {
		for _, id := range ids {
			t.Errorf("%s:%d: expected %s diagnostic, got none", k.file, k.line, id)
		}
	}
}

// TestCleanFixtureIsClean pins the negative guarantee down explicitly:
// the clean package (including its //gstm:ignore'd probe) yields zero
// diagnostics.
func TestCleanFixtureIsClean(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load(filepath.Join("testdata", "src", "clean"))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if diags := Run(pkgs, nil); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("clean fixture produced %s", d)
		}
	}
}

// TestEveryCheckerHasFixtureCoverage enforces the acceptance
// criterion structurally: each registered checker fires at least once
// in the fixture corpus (positive case) and the corpus contains
// negative material it stays silent on.
func TestEveryCheckerHasFixtureCoverage(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	var patterns []string
	for _, d := range fixtureDirs {
		patterns = append(patterns, filepath.Join("testdata", "src", d))
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	fired := map[string]int{}
	for _, d := range Run(pkgs, nil) {
		fired[d.Check]++
	}
	for _, c := range Checkers() {
		if fired[c.ID()] == 0 {
			t.Errorf("checker %s (%s) never fires on the fixtures", c.ID(), c.Name())
		}
	}
}

// TestRegistry sanity-checks the checker registry surface the CLI
// depends on.
func TestRegistry(t *testing.T) {
	cs := Checkers()
	if len(cs) < 5 {
		t.Fatalf("registered %d checkers, want >= 5", len(cs))
	}
	for i, c := range cs {
		if c.ID() == "" || c.Name() == "" || c.Doc() == "" {
			t.Errorf("checker %d has empty metadata", i)
		}
		if i > 0 && cs[i-1].ID() >= c.ID() {
			t.Errorf("checkers not sorted by ID: %s >= %s", cs[i-1].ID(), c.ID())
		}
		byID, ok := Lookup(c.ID())
		if !ok || byID.ID() != c.ID() {
			t.Errorf("Lookup(%q) failed", c.ID())
		}
		byName, ok := Lookup(c.Name())
		if !ok || byName.ID() != c.ID() {
			t.Errorf("Lookup(%q) failed", c.Name())
		}
	}
	if _, ok := Lookup("no-such-check"); ok {
		t.Error("Lookup of unknown check succeeded")
	}

	// The README's rule table documents exactly the registered checks,
	// one `| gstmNNN | name |` row each, in ID order.
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	var rows, regs []string
	for _, m := range readmeRuleRE.FindAllStringSubmatch(string(readme), -1) {
		rows = append(rows, m[1]+" "+m[2])
	}
	for _, c := range cs {
		regs = append(regs, c.ID()+" "+c.Name())
	}
	if !reflect.DeepEqual(rows, regs) {
		t.Errorf("README rule table rows = %v, want the registry in ID order %v", rows, regs)
	}
}

// readmeRuleRE matches a README rule-table row: `| gstm001 | retry-unsafe |`.
var readmeRuleRE = regexp.MustCompile(`(?m)^\| (gstm\d{3}) \| ([a-z-]+) \|`)

// TestLoaderModuleResolution exercises the module-aware loader
// directly: root detection, wildcard expansion, and in-module import
// resolution through the internal packages.
func TestLoaderModuleResolution(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if loader.ModulePath != "gstm" {
		t.Fatalf("module path = %q, want gstm", loader.ModulePath)
	}
	pkgs, err := loader.Load(filepath.Join("testdata", "src", "clean"))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	pkg := pkgs[0]
	if want := "gstm/internal/lint/testdata/src/clean"; pkg.Path != want {
		t.Fatalf("package path = %q, want %q", pkg.Path, want)
	}
	if len(pkg.TypeErrors) != 0 {
		t.Fatalf("type errors: %v", pkg.TypeErrors)
	}
	// The fixture imports the façade package, which imports the
	// internal runtimes: all of it must have resolved from source.
	if pkg.Types.Scope().Lookup("Transfer") == nil {
		t.Fatal("Transfer not found in clean fixture scope")
	}
}

// TestRepoIsLintClean dogfoods the linter over the entire repository —
// the same gate scripts/check.sh enforces pre-merge. Any new
// transaction-safety violation anywhere in the repo fails this test.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide lint skipped in -short mode")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load(loader.ModuleRoot + "/...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, d := range Run(pkgs, nil) {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

// TestDiagnosticString pins the file:line:col rendering the CLI and
// editors rely on.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Check: "gstm001", Message: "boom"}
	d.Position.Filename = "x.go"
	d.Position.Line = 3
	d.Position.Column = 7
	if got, want := d.String(), "x.go:3:7: boom [gstm001]"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got := fmt.Sprint(d); !strings.Contains(got, "gstm001") {
		t.Fatalf("Sprint lost the check ID: %q", got)
	}
}
