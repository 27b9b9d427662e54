// Command gstmlint is the repository's STM-aware linter: it loads
// packages from source (stdlib go/parser + go/types, no x/tools),
// runs the internal/lint checker registry over them, and reports
// file:line:col diagnostics with stable check IDs.
//
// Usage:
//
//	gstmlint [-checks gstm001,gstm003] [-skip gstm010] [-list] [-json] [-v] [packages...]
//	gstmlint -fix [-diff] [packages...]
//	gstmlint -footprint [-json] [packages...]
//
// Packages are directories or "dir/..." wildcards (default "./...").
// The exit code is the CI contract: 0 clean, 1 diagnostics found,
// 2 usage or load failure. Suppress individual findings with an
// inline //gstm:ignore <ids> directive; see README "Transaction
// safety rules".
//
// -checks selects the checks to run by ID or name; -skip subtracts
// from that set (from all checks when -checks is absent). With -json
// the first output line echoes the selected set as {"checks":[...]},
// so CI logs record exactly what gated the run.
//
// -json switches lint output to one JSON object per diagnostic per
// line (file, line, col, check, message, chain, fixable), for editor
// and CI integration.
//
// -fix applies the machine-applicable suggested fixes (gstm005's
// dropped error, gstm007's dead read, gstm008's Atomic→AtomicCtx) and
// rewrites the files gofmt-clean; with -diff it prints the rewrites as
// unified diffs instead of writing anything — the CI dry-run gate.
//
// -footprint skips linting and instead prints the static transaction
// footprint report: for every Atomic call site, the may-read/may-write
// sets of transactional storage (propagated through helper calls), and
// the static conflict graph those sets induce — the compile-time
// analogue of the TSA model's abort edges. Module-local imports of the
// named packages are loaded too, so footprints of an entry point
// include the workload packages it calls into. Add -lint to run the
// checks over the same loaded packages too.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gstm/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("gstmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checks := fs.String("checks", "", "comma-separated check IDs or names to run (default: all)")
	skip := fs.String("skip", "", "comma-separated check IDs or names to exclude from the selected set")
	list := fs.Bool("list", false, "list registered checks and exit")
	jsonOut := fs.Bool("json", false, "emit one JSON object per diagnostic (or the footprint graph as JSON with -footprint)")
	footprint := fs.Bool("footprint", false, "print static transaction footprints and the conflict graph instead of linting")
	lintToo := fs.Bool("lint", false, "also run the lint checks when -footprint is given")
	fix := fs.Bool("fix", false, "apply machine-applicable suggested fixes (rewrites files gofmt-clean)")
	diff := fs.Bool("diff", false, "with -fix: print the rewrites as diffs instead of writing files")
	verbose := fs.Bool("v", false, "also print type-check warnings for packages that do not fully type-check")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: gstmlint [flags] [packages...]\n\nSTM-aware static analysis for gstm transaction bodies.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *diff && !*fix {
		fmt.Fprintf(stderr, "gstmlint: -diff requires -fix\n")
		return 2
	}

	if *list {
		for _, c := range lint.Checkers() {
			fmt.Fprintf(stdout, "%s %s\n    %s\n", c.ID(), c.Name(), c.Doc())
		}
		return 0
	}

	// Resolve the selected check set: -checks narrows (default: all
	// registered), -skip subtracts. The set is resolved here once so
	// the -json echo and the run agree on it.
	resolve := func(csv string) ([]lint.Checker, bool) {
		var out []lint.Checker
		for _, id := range strings.Split(csv, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			c, ok := lint.Lookup(id)
			if !ok {
				fmt.Fprintf(stderr, "gstmlint: unknown check %q (try -list)\n", id)
				return nil, false
			}
			out = append(out, c)
		}
		return out, true
	}
	checkers := lint.Checkers()
	if *checks != "" {
		var ok bool
		if checkers, ok = resolve(*checks); !ok {
			return 2
		}
	}
	if *skip != "" {
		skipped, ok := resolve(*skip)
		if !ok {
			return 2
		}
		drop := map[string]bool{}
		for _, c := range skipped {
			drop[c.ID()] = true
		}
		kept := checkers[:0:0]
		for _, c := range checkers {
			if !drop[c.ID()] {
				kept = append(kept, c)
			}
		}
		checkers = kept
	}
	var checkIDs []string
	for _, c := range checkers {
		checkIDs = append(checkIDs, c.ID())
	}
	sort.Strings(checkIDs)

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintf(stderr, "gstmlint: %v\n", err)
		return 2
	}
	// Footprints follow calls into workload packages, so that mode pulls
	// in module-local dependencies of the named entry points. The
	// footprint report and -lint share this one load pass; lint.Run
	// skips the dependency-only packages itself.
	load := loader.Load
	if *footprint {
		load = loader.LoadWithDeps
	}
	pkgs, err := load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "gstmlint: %v\n", err)
		return 2
	}

	if *verbose {
		for _, pkg := range pkgs {
			for _, terr := range pkg.TypeErrors {
				fmt.Fprintf(stderr, "gstmlint: typecheck %s: %v\n", pkg.Path, terr)
			}
		}
	}

	if *footprint {
		g := lint.Footprint(pkgs, loader.ModuleRoot)
		if *jsonOut {
			if err := g.RenderJSON(stdout); err != nil {
				fmt.Fprintf(stderr, "gstmlint: %v\n", err)
				return 2
			}
		} else {
			g.RenderText(stdout)
		}
		if !*lintToo {
			return 0
		}
	}

	cwd, _ := os.Getwd()
	rel := func(file string) string {
		if cwd == "" {
			return file
		}
		if r, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
		return file
	}
	diags := lint.Run(pkgs, checkers)

	enc := json.NewEncoder(stdout)
	if *jsonOut {
		// First line: the selected check set, so CI logs record exactly
		// which checks gated this run.
		echo := struct {
			Checks []string `json:"checks"`
		}{checkIDs}
		if err := enc.Encode(echo); err != nil {
			fmt.Fprintf(stderr, "gstmlint: %v\n", err)
			return 2
		}
	}

	if *fix {
		fixed, err := lint.ApplyFixes(diags)
		if err != nil {
			fmt.Fprintf(stderr, "gstmlint: %v\n", err)
			return 2
		}
		files := make([]string, 0, len(fixed))
		for file := range fixed {
			files = append(files, file)
		}
		sort.Strings(files)
		for _, file := range files {
			if *diff {
				before, err := os.ReadFile(file)
				if err != nil {
					fmt.Fprintf(stderr, "gstmlint: %v\n", err)
					return 2
				}
				lint.RenderDiff(stdout, rel(file), before, fixed[file])
				continue
			}
			if err := os.WriteFile(file, fixed[file], 0o644); err != nil {
				fmt.Fprintf(stderr, "gstmlint: %v\n", err)
				return 2
			}
			fmt.Fprintf(stdout, "gstmlint: fixed %s\n", rel(file))
		}
	}

	for _, d := range diags {
		file := rel(d.Position.Filename)
		if *jsonOut {
			// One object per line: stable field set for tooling.
			rec := struct {
				File    string   `json:"file"`
				Line    int      `json:"line"`
				Col     int      `json:"col"`
				Check   string   `json:"check"`
				Message string   `json:"message"`
				Chain   []string `json:"chain,omitempty"`
				Fixable bool     `json:"fixable,omitempty"`
			}{file, d.Position.Line, d.Position.Column, d.Check, d.Message, d.Chain, d.Fix != nil}
			if err := enc.Encode(rec); err != nil {
				fmt.Fprintf(stderr, "gstmlint: %v\n", err)
				return 2
			}
			continue
		}
		fmt.Fprintf(stdout, "%s:%d:%d: %s [%s]\n", file, d.Position.Line, d.Position.Column, d.Message, d.Check)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "gstmlint: %d issue(s) across %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
