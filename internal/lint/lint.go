// Package lint is a from-scratch static-analysis framework for the
// gstm repository, built directly on go/parser, go/ast and go/types
// (no golang.org/x/tools dependency).
//
// The paper's whole pipeline — TTS profiling, TSA model construction,
// guided commit — assumes transaction bodies are pure with respect to
// retry: TL2 may re-execute an Atomic closure many times before it
// commits, so any side effect, escaped *Tx, or raw Var access silently
// corrupts both program state and the profiled transaction sequences
// the model is built from. Package lint makes those patterns
// unwritable at build time: a registry of STM-aware checkers walks
// type-checked packages and reports diagnostics with stable check IDs
// (gstm000..gstm009) that CI gates on via cmd/gstmlint.
//
// Diagnostics can be suppressed with an inline directive naming the
// check(s) being waived:
//
//	v.Store(0) //gstm:ignore gstm003 -- setup helper, no tx in flight
//
// The directive applies to its own line and the line directly below
// (for comments standing alone above the construct). Explicit check
// IDs are required: a bare //gstm:ignore suppresses nothing and is
// itself reported by gstm000, as is any directive that suppressed no
// diagnostic in the run — silent blanket ignores would hide new
// findings forever. Some checkers attach machine-applicable fixes to
// their diagnostics; ApplyFixes materializes them (gstmlint -fix).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, a stable check ID and a
// human-readable message. Interprocedural checks additionally carry
// the call chain from the transaction body to the offending operation.
type Diagnostic struct {
	Position token.Position
	Check    string // stable ID, e.g. "gstm001"
	Message  string
	// Chain is the call path for interprocedural findings (gstm006),
	// outermost first: ["tx TxMove", "jitter", "rand.Intn"]. Nil for
	// intraprocedural checks.
	Chain []string
	// Fix is the machine-applicable rewrite, when the checker knows one
	// (see fix.go). Nil means the finding needs a human.
	Fix *Fix
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Position.Filename,
		d.Position.Line, d.Position.Column, d.Message, d.Check)
}

// Checker is one lint pass. Implementations are stateless: Check may
// be called concurrently for different packages.
type Checker interface {
	// ID returns the stable check ID (e.g. "gstm001").
	ID() string
	// Name returns the short mnemonic (e.g. "retry-unsafe").
	Name() string
	// Doc returns a one-paragraph description of what the check flags
	// and why the pattern is unsafe under transactional retry.
	Doc() string
	// Check inspects one package and reports findings through pass.
	Check(pass *Pass)
}

// registry holds every Register'ed checker, keyed by ID.
var registry = map[string]Checker{}

// Register adds a checker to the global registry. It panics on
// duplicate IDs — checker IDs are API and must stay unique.
func Register(c Checker) {
	if _, dup := registry[c.ID()]; dup {
		panic("lint: duplicate checker ID " + c.ID())
	}
	registry[c.ID()] = c
}

// Checkers returns all registered checkers sorted by ID.
func Checkers() []Checker {
	out := make([]Checker, 0, len(registry))
	for _, c := range registry {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// Lookup resolves a checker by ID or mnemonic name.
func Lookup(idOrName string) (Checker, bool) {
	if c, ok := registry[idOrName]; ok {
		return c, true
	}
	for _, c := range registry {
		if c.Name() == idOrName {
			return c, true
		}
	}
	return nil, false
}

// Pass carries one package through one checker.
type Pass struct {
	Fset    *token.FileSet
	Pkg     *Package
	checker Checker
	diags   *[]Diagnostic

	// prog is the module-wide program view (function index across every
	// package of the Run), used by interprocedural checkers.
	prog *program

	// contexts caches the package's transactional contexts, shared by
	// every checker that runs on the package.
	contexts *[]*txContext
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Position: p.Fset.Position(pos),
		Check:    p.checker.ID(),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportAtf records a diagnostic at an already-rendered position
// (used by module-wide checks whose finding lives in a different file
// than the package being walked).
func (p *Pass) ReportAtf(pos token.Position, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Position: pos,
		Check:    p.checker.ID(),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportChainf records a diagnostic that carries a call chain.
func (p *Pass) ReportChainf(pos token.Pos, chain []string, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Position: p.Fset.Position(pos),
		Check:    p.checker.ID(),
		Message:  fmt.Sprintf(format, args...),
		Chain:    chain,
	})
}

// Run executes the given checkers (all registered ones if nil) over
// the packages and returns the surviving diagnostics, sorted by
// position, deduplicated, and filtered through //gstm:ignore
// directives. When the gstm000 hygiene check is among the selected
// checkers, directives that suppressed nothing are reported after
// filtering.
func Run(pkgs []*Package, checkers []Checker) []Diagnostic {
	if checkers == nil {
		checkers = Checkers()
	}
	ran := map[string]bool{}
	for _, c := range checkers {
		ran[c.ID()] = true
	}
	prog := newProgram(pkgs)
	tracker := newDirectiveTracker()
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ctxs := new([]*txContext)
		for _, c := range checkers {
			pass := &Pass{Fset: pkg.Fset, Pkg: pkg, checker: c, diags: &diags, prog: prog, contexts: ctxs}
			c.Check(pass)
		}
		diags = tracker.suppress(diags, pkg)
	}
	if ran[hygieneID] {
		diags = append(diags, tracker.warnings(ran)...)
	}
	sortDiags(diags)
	return dedupe(diags)
}

// sortDiags orders diagnostics by position, then check ID, then
// message — a total order, so multi-package runs are deterministic
// regardless of package iteration order.
func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// dedupe removes exact duplicates: loading the same file through more
// than one path (a lint target that is also another target's
// dependency) or reaching one construct via two walks must yield one
// finding, not two. The message stays in the key — distinct findings
// can legitimately share a position (e.g. two gstm006 effects behind
// one helper call).
func dedupe(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	seen := map[string]bool{}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d:%d:%s:%s", d.Position.Filename, d.Position.Line,
			d.Position.Column, d.Check, d.Message)
		if !seen[key] {
			seen[key] = true
			out = append(out, d)
		}
	}
	return out
}

// ignoreDirective is the suppression comment prefix.
const ignoreDirective = "gstm:ignore"

// hygieneID is gstm000, the directive-hygiene pseudo-check (see
// hygiene.go); Run drives it from the suppression bookkeeping.
const hygieneID = "gstm000"

type lineKey struct {
	file string
	line int
}

// directive is one parsed //gstm:ignore comment.
type directive struct {
	pos  token.Position
	ids  []string // parsed check IDs; empty = malformed bare directive
	used bool     // suppressed at least one diagnostic this run
}

// directiveTracker collects every ignore directive seen across the
// run's packages (deduplicating files loaded through multiple paths)
// and records which ones actually suppressed a diagnostic.
type directiveTracker struct {
	seen   map[lineKey]bool
	byLine map[lineKey][]*directive
	all    []*directive
}

func newDirectiveTracker() *directiveTracker {
	return &directiveTracker{seen: map[lineKey]bool{}, byLine: map[lineKey][]*directive{}}
}

// collect parses pkg's ignore directives into the tracker.
func (tr *directiveTracker) collect(pkg *Package) {
	for _, f := range pkg.Files {
		tokFile := pkg.Fset.File(f.Pos())
		if tokFile == nil {
			continue
		}
		fname := tokFile.Name()
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(text, "/*")
				text = strings.TrimSpace(strings.TrimSuffix(text, "*/"))
				if !strings.HasPrefix(text, ignoreDirective) {
					continue
				}
				rest := strings.TrimPrefix(text, ignoreDirective)
				// Allow a trailing free-form justification after " -- ".
				if i := strings.Index(rest, "--"); i >= 0 {
					rest = rest[:i]
				}
				pos := pkg.Fset.Position(c.Pos())
				at := lineKey{fname, pos.Line}
				if tr.seen[at] {
					continue // same file through another load path
				}
				tr.seen[at] = true
				d := &directive{
					pos: pos,
					ids: strings.FieldsFunc(rest, func(r rune) bool {
						return r == ',' || r == ' ' || r == '\t'
					}),
				}
				tr.all = append(tr.all, d)
				// The directive covers its own line and the line below
				// (comments standing alone above the construct).
				for _, l := range []int{pos.Line, pos.Line + 1} {
					k := lineKey{fname, l}
					tr.byLine[k] = append(tr.byLine[k], d)
				}
			}
		}
	}
}

// suppress folds pkg's directives into the tracker and drops the
// accumulated diagnostics they cover. Only directives naming the
// diagnostic's check ID suppress it — a bare //gstm:ignore matches
// nothing (gstm000 reports it instead).
func (tr *directiveTracker) suppress(diags []Diagnostic, pkg *Package) []Diagnostic {
	tr.collect(pkg)
	if len(tr.byLine) == 0 {
		return diags
	}
	out := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, dir := range tr.byLine[lineKey{d.Position.Filename, d.Position.Line}] {
			for _, id := range dir.ids {
				if id == d.Check {
					dir.used = true
					suppressed = true
				}
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	return out
}

// warnings reports directive hygiene (gstm000): bare directives, and
// directives that suppressed nothing even though every check they name
// ran (an unknown ID counts as "ran" — it can never suppress, and the
// warning names it). A directive naming a registered check that was
// deselected this run is given the benefit of the doubt.
func (tr *directiveTracker) warnings(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	warn := func(pos token.Position, format string, args ...any) {
		out = append(out, Diagnostic{Position: pos, Check: hygieneID, Message: fmt.Sprintf(format, args...)})
	}
	for _, d := range tr.all {
		if len(d.ids) == 0 {
			warn(d.pos, "bare //gstm:ignore suppresses nothing: name the check being waived, e.g. //gstm:ignore gstm007 -- justification")
			continue
		}
		if d.used {
			continue
		}
		decided, unknown := true, ""
		for _, id := range d.ids {
			c, known := Lookup(id)
			if !known && unknown == "" {
				unknown = id
			}
			if known && !ran[c.ID()] {
				decided = false // that check did not run; the directive may still be load-bearing
				break
			}
		}
		switch {
		case !decided:
		case unknown != "":
			warn(d.pos, "//gstm:ignore %s suppressed no diagnostic: %s is not a registered check (retired or misspelt); remove the directive or fix it", strings.Join(d.ids, ", "), unknown)
		default:
			warn(d.pos, "//gstm:ignore %s suppressed no diagnostic: the finding is gone or the ID is wrong; remove the directive or fix it", strings.Join(d.ids, ", "))
		}
	}
	return out
}

// inspectIgnoringNestedContexts walks body but does not descend into
// nested function literals that are themselves transactional contexts
// (they are analyzed as their own context, avoiding double reports).
func (p *Pass) inspectIgnoringNestedContexts(body ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && n != body {
			if _, _, isCtx := p.txParams(fl.Type); isCtx {
				return false
			}
		}
		return visit(n)
	})
}
