package lint

// Interprocedural effect inference: the proof side of static effect
// certification (see internal/effect for the manifest the proof is
// lowered into).
//
// The footprint pass already computes, per Atomic/AtomicCtx site, the
// may-read/may-write sets of transactional storage, propagated over
// the module-wide call graph with param/receiver substitution, and —
// crucially — records every analysis horizon (dynamic dispatch,
// unresolvable storage, unloaded bodies reached by transactional
// state) as a note. Effect inference turns that into a verdict with
// teeth:
//
//   - readonly:       empty may-write set, zero horizon notes, and no
//                     transaction-handle escape anywhere the handle can
//                     statically flow. The runtime may run such a site
//                     without a write set, commit locks or guide holds.
//   - write-bounded:  every possible write resolves to a concrete
//                     storage label (the certified write footprint).
//   - unknown:        anything the analysis cannot bound; the reason is
//                     the first horizon (deterministic: notes are
//                     sorted).
//
// Escape poisoning re-checks gstm002's catalogue here rather than
// trusting the lint gate: certification unlocks a fast path that skips
// safety machinery, so the proof must not depend on a separate check
// having run (or on its diagnostics not having been //gstm:ignore'd).

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"gstm/internal/effect"
)

// SiteEffect pairs one Atomic site's footprint with its inferred
// effect class.
type SiteEffect struct {
	Site  SiteFootprint
	Class effect.Class
	// Reason explains why the site fell short of readonly ("" for
	// readonly sites): the escape position, the first analysis horizon,
	// or the bounded write set.
	Reason string
}

// Key renders the stable cross-package site key the manifest is keyed
// by: "pkg.Func@file:line" (file relative to the module root).
func (e SiteEffect) Key() string {
	fn := e.Site.Func
	if fn == "" {
		fn = "?"
	}
	return fmt.Sprintf("%s.%s@%s:%d", e.Site.Pkg, fn, e.Site.File, e.Site.Line)
}

// InferEffects classifies every Atomic/AtomicCtx site in pkgs
// (excluding test files and STM implementation packages), in the same
// deterministic file:line:col order Footprint uses. moduleRoot
// relativizes file paths, which also keeps site keys stable across
// checkouts.
func InferEffects(pkgs []*Package, moduleRoot string) []SiteEffect {
	pr := newProgram(pkgs)
	esc := newEscapeIndex(pr)
	var out []SiteEffect
	for _, pkg := range pkgs {
		for _, site := range atomicSitesIn(pkg) {
			pos := pkg.Fset.Position(site.call.Pos())
			if strings.HasSuffix(pos.Filename, "_test.go") {
				continue
			}
			fp := pr.siteFootprint(pkg, site)
			cls, reason := pr.classifySite(pkg, site, esc)
			file := pos.Filename
			if moduleRoot != "" {
				if rel, err := filepath.Rel(moduleRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
					file = filepath.ToSlash(rel)
				}
			}
			out = append(out, SiteEffect{
				Site: SiteFootprint{
					File:        file,
					Line:        pos.Line,
					Col:         pos.Column,
					Pkg:         pkg.Path,
					Func:        enclosingFuncName(pkg, site.call.Pos()),
					Tx:          site.txLabel,
					TxID:        site.txID,
					Irrevocable: site.irrevocable,
					Reads:       fp.reads(),
					Writes:      fp.writes(),
					Notes:       fp.notes,
				},
				Class:  cls,
				Reason: reason,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Site, out[j].Site
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	return out
}

// BuildManifest lowers classified sites into the sealed manifest
// consumed by gstm.Options.Manifest. Only write-bounded sites carry a
// certified write set; unknown sites keep their (lower-bound) reason
// instead.
func BuildManifest(effects []SiteEffect) *effect.Manifest {
	m := &effect.Manifest{Sites: make([]effect.Site, 0, len(effects))}
	for _, e := range effects {
		s := effect.Site{
			Key:         e.Key(),
			Tx:          e.Site.Tx,
			TxID:        e.Site.TxID,
			Irrevocable: e.Site.Irrevocable,
			Class:       e.Class,
			Reason:      e.Reason,
		}
		if e.Class == effect.WriteBounded {
			s.Writes = append([]string(nil), e.Site.Writes...)
		}
		m.Sites = append(m.Sites, s)
	}
	return m
}

// classifySite is the per-site verdict shared by InferEffects and
// gstm011: readonly needs an empty may-write set, zero horizon notes
// and no handle escape; concrete-only writes are write-bounded;
// everything else is unknown with the first horizon as the reason.
func (pr *program) classifySite(pkg *Package, site *atomicSite, esc *escapeIndex) (effect.Class, string) {
	if reason := esc.siteEscapes(pkg, site); reason != "" {
		return effect.Unknown, reason
	}
	fp := pr.siteFootprint(pkg, site)
	if len(fp.notes) > 0 {
		return effect.Unknown, fp.notes[0]
	}
	writes := fp.writes()
	if len(writes) == 0 {
		return effect.ReadOnly, ""
	}
	return effect.WriteBounded, "body writes " + strings.Join(writes, ", ")
}

// ---- handle-escape poisoning ----

// escapeIndex memoizes per-function escape scans across the sites of
// one inference run.
type escapeIndex struct {
	pr    *program
	funcs map[*funcNode]string // "" = scanned, no escape
}

func newEscapeIndex(pr *program) *escapeIndex {
	return &escapeIndex{pr: pr, funcs: map[*funcNode]string{}}
}

// siteEscapes reports (as a reason string, "" for none) whether a
// transaction handle escapes in the site body or in any loaded helper
// the handle can statically flow to. Dynamic calls and unloaded bodies
// need no handling here: the footprint pass already records those as
// horizon notes, which poison the classification on their own.
func (e *escapeIndex) siteEscapes(pkg *Package, site *atomicSite) string {
	if site.closure == nil {
		if fn, ok := resolveFuncRef(pkg, site.body); ok {
			if node := e.pr.node(fn); node != nil {
				return e.funcEscapes(node, map[*funcNode]bool{})
			}
		}
		return "" // non-static or unloaded body: poisoned by its footprint note
	}
	skip := nestedAtomicClosures(pkg, site.closure)
	if reason := escapeScan(pkg, site.closure, skip); reason != "" {
		return reason
	}
	return e.calleesEscape(pkg, site.closure, skip, map[*funcNode]bool{})
}

// funcEscapes scans one declared function (typically a helper taking
// the handle) and its own handle-receiving callees, memoized.
func (e *escapeIndex) funcEscapes(node *funcNode, visiting map[*funcNode]bool) string {
	if r, done := e.funcs[node]; done {
		return r
	}
	if visiting[node] {
		return "" // recursion: the first visit covers the body
	}
	visiting[node] = true
	defer delete(visiting, node)
	r := escapeScan(node.pkg, node.decl.Body, nil)
	if r == "" {
		r = e.calleesEscape(node.pkg, node.decl.Body, nil, visiting)
	}
	e.funcs[node] = r
	return r
}

// calleesEscape follows static calls out of body into loaded helpers
// that receive a transaction handle — the only way the handle flows
// further — and scans those bodies too.
func (e *escapeIndex) calleesEscape(pkg *Package, body ast.Node, skip map[ast.Node]bool, visiting map[*funcNode]bool) string {
	reason := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" || (skip != nil && skip[n]) {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := pkg.calleeFunc(call)
		if fn == nil || fn.Pkg() == nil || isSTMPackagePath(fn.Pkg().Path()) {
			return true
		}
		if _, isAtomic := atomicMethod(fn); isAtomic {
			return true // nested sites are their own certification problem
		}
		if !hasTxParam(fn) {
			return true
		}
		if node := e.pr.node(fn); node != nil {
			reason = e.funcEscapes(node, visiting)
		}
		return true
	})
	return reason
}

// escapeScan checks one body against gstm002's escape catalogue:
// method values binding the handle uninvoked, stores into package
// variables/fields/elements, channel sends, returns, composite
// literals, appends, and goroutine captures. The first finding (in
// walk order) becomes the reason.
func escapeScan(pkg *Package, body ast.Node, skip map[ast.Node]bool) string {
	// Pre-collect invoked selectors so `tx.Read(v)` is not mistaken
	// for a method value binding the handle.
	invoked := map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			invoked[ast.Unparen(call.Fun)] = true
		}
		return true
	})

	isTx := func(e ast.Expr) bool { return e != nil && isTxPointer(pkg.exprType(e)) }
	reason := ""
	found := func(n ast.Node, what string) {
		if reason == "" {
			pos := pkg.Fset.Position(n.Pos())
			reason = fmt.Sprintf("transaction handle escapes at %s:%d (%s)", filepath.Base(pos.Filename), pos.Line, what)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" || (skip != nil && skip[n]) {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if invoked[n] {
				return true
			}
			if sel, ok := pkg.Info.Selections[n]; ok && sel.Kind() == types.MethodVal && isTxPointer(sel.Recv()) {
				found(n, "method value binds the handle")
			}
		case *ast.AssignStmt:
			checkEscapeAssign(pkg, n, isTx, found)
		case *ast.SendStmt:
			if isTx(n.Value) {
				found(n, "handle sent on a channel")
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if isTx(r) {
					found(n, "handle returned")
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if isTx(v) {
					found(n, "handle stored in a composite literal")
				}
			}
		case *ast.CallExpr:
			if pkg.calleeBuiltin(n) == "append" && len(n.Args) > 1 {
				for _, a := range n.Args[1:] {
					if isTx(a) {
						found(n, "handle appended to a slice")
					}
				}
			}
		case *ast.GoStmt:
			if usesTxTyped(pkg, n.Call) {
				found(n, "handle captured by a goroutine")
			}
		}
		return true
	})
	return reason
}

// checkEscapeAssign flags handle assignments whose target outlives the
// attempt: package-scope variables, fields, elements and dereferences.
// A plain local alias (`t := tx`) is fine — t is itself handle-typed,
// so anything t later does is caught by the same scan.
func checkEscapeAssign(pkg *Package, n *ast.AssignStmt, isTx func(ast.Expr) bool, found func(ast.Node, string)) {
	aligned := len(n.Lhs) == len(n.Rhs)
	for i, lhs := range n.Lhs {
		// The value flowing into this target: the paired RHS when the
		// assignment is aligned, otherwise (a tuple-returning call) the
		// target's own type says whether a handle lands in it.
		if aligned {
			if !isTx(n.Rhs[i]) {
				continue
			}
		} else if !isTx(lhs) {
			continue
		}
		switch t := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			obj := pkg.Info.Defs[t]
			if obj == nil {
				obj = pkg.Info.Uses[t]
			}
			if obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				found(n, "handle stored in a package variable")
			}
		case *ast.SelectorExpr:
			found(n, "handle stored in a field")
		case *ast.IndexExpr:
			found(n, "handle stored in an element")
		case *ast.StarExpr:
			found(n, "handle stored through a pointer")
		}
	}
}

// usesTxTyped reports whether any identifier inside n has a
// transaction-handle type.
func usesTxTyped(pkg *Package, n ast.Node) bool {
	used := false
	ast.Inspect(n, func(m ast.Node) bool {
		if used {
			return false
		}
		if id, ok := m.(*ast.Ident); ok {
			if obj := pkg.Info.Uses[id]; obj != nil && isTxPointer(obj.Type()) {
				used = true
			}
		}
		return !used
	})
	return used
}
