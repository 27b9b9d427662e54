package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCapture invokes run() with stdout/stderr redirected to temp files
// and returns the exit code and both streams.
func runCapture(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	capture := func(name string) (*os.File, func() string) {
		f, err := os.CreateTemp(t.TempDir(), name)
		if err != nil {
			t.Fatalf("CreateTemp: %v", err)
		}
		return f, func() string {
			data, err := os.ReadFile(f.Name())
			if err != nil {
				t.Fatalf("ReadFile: %v", err)
			}
			f.Close()
			return string(data)
		}
	}
	outF, outRead := capture("stdout")
	errF, errRead := capture("stderr")
	code = run(args, outF, errF)
	return code, outRead(), errRead()
}

// TestJSONOutput pins the -json contract: one object per line with the
// stable field set, same findings and exit code as the text mode.
func TestJSONOutput(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "lint", "testdata", "src", "deadread")
	code, stdout, _ := runCapture(t, "-json", "-checks", "gstm007", fixture)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (fixture has findings)", code)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) < 3 {
		t.Fatalf("got %d JSON lines, want echo + several diagnostics:\n%s", len(lines), stdout)
	}

	// The first line echoes the selected check set.
	var echo struct {
		Checks []string `json:"checks"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &echo); err != nil {
		t.Fatalf("echo line is not valid JSON: %v\n%s", err, lines[0])
	}
	if len(echo.Checks) != 1 || echo.Checks[0] != "gstm007" {
		t.Errorf("echoed checks = %v, want [gstm007]", echo.Checks)
	}

	for _, line := range lines[1:] {
		var rec struct {
			File    string   `json:"file"`
			Line    int      `json:"line"`
			Col     int      `json:"col"`
			Check   string   `json:"check"`
			Message string   `json:"message"`
			Chain   []string `json:"chain"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line is not valid JSON: %v\n%s", err, line)
		}
		if rec.File == "" || rec.Line == 0 || rec.Check != "gstm007" || rec.Message == "" {
			t.Errorf("incomplete record: %s", line)
		}
	}
}

// TestSkipFlag pins -skip: subtracting the only firing check from the
// full set silences the fixture, and the -json echo reflects the
// reduced selection.
func TestSkipFlag(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "lint", "testdata", "src", "deadread")

	// Sanity: the fixture has gstm007 findings without -skip.
	if code, _, _ := runCapture(t, "-checks", "gstm007", fixture); code != 1 {
		t.Fatalf("baseline exit code = %d, want 1", code)
	}

	code, stdout, stderr := runCapture(t, "-json", "-skip", "gstm007", fixture)
	if code != 0 {
		t.Fatalf("exit code with -skip = %d, want 0; stderr:\n%s\nstdout:\n%s", code, stderr, stdout)
	}
	var echo struct {
		Checks []string `json:"checks"`
	}
	first := strings.SplitN(strings.TrimSpace(stdout), "\n", 2)[0]
	if err := json.Unmarshal([]byte(first), &echo); err != nil {
		t.Fatalf("echo line invalid: %v\n%s", err, first)
	}
	for _, id := range echo.Checks {
		if id == "gstm007" {
			t.Errorf("skipped check still in echoed set: %v", echo.Checks)
		}
	}
	if len(echo.Checks) == 0 {
		t.Error("echoed set empty; -skip should leave the other checks selected")
	}

	// Unknown IDs are a usage error, same as -checks.
	if code, _, stderr := runCapture(t, "-skip", "nosuch", fixture); code != 2 || !strings.Contains(stderr, "unknown check") {
		t.Errorf("unknown -skip id: code = %d, stderr = %q; want usage error 2", code, stderr)
	}
}

// TestJSONChain checks that interprocedural findings carry their call
// chain through the JSON encoding.
func TestJSONChain(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "lint", "testdata", "src", "transitive")
	code, stdout, _ := runCapture(t, "-json", "-checks", "gstm006", fixture)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	sawChain := false
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		var rec struct {
			Chain []string `json:"chain"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, line)
		}
		if len(rec.Chain) >= 2 {
			sawChain = true
		}
	}
	if !sawChain {
		t.Errorf("no gstm006 record carried a call chain:\n%s", stdout)
	}
}

// TestFootprintFlag smoke-tests the -footprint mode through the CLI:
// text and JSON renderings of a one-site example.
func TestFootprintFlag(t *testing.T) {
	example := filepath.Join("..", "..", "examples", "quickstart")
	code, stdout, stderr := runCapture(t, "-footprint", example)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"static transaction footprints (1 sites)", "quickstart.main.bank", "static conflict graph"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("text output missing %q:\n%s", want, stdout)
		}
	}

	code, stdout, _ = runCapture(t, "-footprint", "-json", example)
	if code != 0 {
		t.Fatalf("json exit code = %d, want 0", code)
	}
	var g struct {
		Sites []struct {
			Reads  []string `json:"reads"`
			Writes []string `json:"writes"`
		} `json:"sites"`
		Edges []struct{ A, B int } `json:"edges"`
	}
	if err := json.Unmarshal([]byte(stdout), &g); err != nil {
		t.Fatalf("footprint JSON invalid: %v", err)
	}
	if len(g.Sites) != 1 || len(g.Edges) != 1 {
		t.Errorf("got %d sites / %d edges, want 1 / 1", len(g.Sites), len(g.Edges))
	}

	// -lint shares the footprint's load pass: the fixture's findings
	// still surface (exit 1) after the report.
	fixture := filepath.Join("..", "..", "internal", "lint", "testdata", "src", "deadread")
	code, stdout, _ = runCapture(t, "-footprint", "-lint", "-checks", "gstm007", fixture)
	if code != 1 {
		t.Fatalf("-lint exit code = %d, want 1 (fixture has findings)", code)
	}
	for _, want := range []string{"static transaction footprints", "gstm007"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("combined run lacks %q:\n%s", want, stdout)
		}
	}
}

// TestFixDiffDryRun pins the CI dry-run gate: -fix -diff prints the
// suggested rewrites as diffs, writes nothing, and still reports the
// findings with exit code 1.
func TestFixDiffDryRun(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "lint", "testdata", "src", "deadread")
	src := filepath.Join(fixture, "deadread.go")
	before, err := os.ReadFile(src)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	code, stdout, _ := runCapture(t, "-fix", "-diff", "-checks", "gstm007", fixture)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (fixture has findings)", code)
	}
	if !strings.Contains(stdout, "--- a/") || !strings.Contains(stdout, "+++ b/") {
		t.Errorf("no diff in output:\n%s", stdout)
	}
	after, err := os.ReadFile(src)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(before) != string(after) {
		t.Fatal("-fix -diff modified the fixture on disk")
	}
}

// TestDiffRequiresFix pins the usage contract.
func TestDiffRequiresFix(t *testing.T) {
	code, _, stderr := runCapture(t, "-diff", "./...")
	if code != 2 || !strings.Contains(stderr, "-diff requires -fix") {
		t.Errorf("code = %d, stderr = %q; want usage error 2", code, stderr)
	}
}
