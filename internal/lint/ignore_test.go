package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestIgnoreDirectiveEdgeCases pins the suppression corner cases on
// the dedicated fixture: a standalone directive covering the
// multi-line statement below it, a directive mixing a valid ID with a
// bogus one, and a directive whose IDs do not match the finding.
func TestIgnoreDirectiveEdgeCases(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load(filepath.Join("testdata", "src", "ignore"))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Fatalf("ignore fixture does not type-check: %v", terr)
		}
	}
	diags := Run(pkgs, nil)
	// Two findings survive on line 24: the dead read the bogus999-only
	// directive failed to suppress, and the gstm000 hygiene warning
	// about that directive having suppressed nothing.
	if len(diags) != 2 {
		for _, d := range diags {
			t.Logf("diagnostic: %s", d)
		}
		t.Fatalf("got %d diagnostics, want exactly 2 (gstm000 + gstm007 on the non-matching-ID line)", len(diags))
	}
	for i, want := range []string{"gstm007", "gstm000"} {
		if diags[i].Check != want {
			t.Errorf("diagnostic %d is %s, want %s", i, diags[i].Check, want)
		}
		if diags[i].Position.Line != 24 {
			t.Errorf("diagnostic %d at line %d, want 24 (the `bogus999`-only directive)", i, diags[i].Position.Line)
		}
	}
	// The hygiene warning names the ID no registered check owns (a
	// retired check's waiver reads the same).
	if want := "bogus999 is not a registered check (retired or misspelt)"; !strings.Contains(diags[1].Message, want) {
		t.Errorf("gstm000 message = %q, want it to say %q", diags[1].Message, want)
	}
}

// TestIgnoreDirectiveDoesNotLeakAcrossPackages guards the dogfood run:
// suppression is keyed per package and file, so a directive inside a
// fixture package must not swallow diagnostics from any other package
// loaded in the same Run.
func TestIgnoreDirectiveDoesNotLeakAcrossPackages(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	inFile := func(diags []Diagnostic, substr string) int {
		n := 0
		for _, d := range diags {
			if strings.Contains(d.Position.Filename, substr) {
				n++
			}
		}
		return n
	}

	alone, err := loader.Load(filepath.Join("testdata", "src", "retryunsafe"))
	if err != nil {
		t.Fatalf("Load(retryunsafe): %v", err)
	}
	want := inFile(Run(alone, nil), "retryunsafe")
	if want == 0 {
		t.Fatal("retryunsafe fixture produced no diagnostics on its own")
	}

	both, err := loader.Load(
		filepath.Join("testdata", "src", "ignore"),
		filepath.Join("testdata", "src", "retryunsafe"),
	)
	if err != nil {
		t.Fatalf("Load(both): %v", err)
	}
	if got := inFile(Run(both, nil), "retryunsafe"); got != want {
		t.Errorf("retryunsafe diagnostics dropped from %d to %d when the ignore fixture joined the run", want, got)
	}
}
