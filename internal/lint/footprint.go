package lint

// Static transaction footprints: the compile-time analogue of the TSA
// model's abort edges.
//
// The paper's model records which (transaction, thread) pairs abort
// each other at runtime; whether two transactions *can* abort each
// other at all is largely a static property — the intersection of the
// Vars/Objs their bodies may read and write. For every Atomic call
// site, Footprint computes the may-read and may-write sets of
// package-level and closure-captured transactional storage, propagated
// through helper calls (helpers that take the handle, like
// QuadTree.Move, contribute their accesses at each call site with
// parameters substituted). The resulting static conflict graph has an
// edge wherever one site's may-write set intersects another's
// may-read∪may-write set — a superset of every abort edge a sound
// trace can contain. That makes it useful in two directions: an abort
// edge in a profiled trace between statically *disjoint* transactions
// indicates an attribution bug (see internal/analyze.CrossCheck), and
// a hot Var sitting in many write sets is visible before any benchmark
// runs.
//
// Precision notes: storage is abstracted per declaration — a
// package-level Var by its name, a closure-captured local by its
// declaring function, a struct field by its owning named type (all
// instances of Game.posX merge). Aliasing through single-assignment
// locals (`of := q.counts[i]`) is traced; anything else — dynamic
// calls, storage reached through interfaces, unresolvable expressions
// — is recorded as an analysis horizon note on the site rather than
// silently dropped, so an empty Notes list means the footprint is
// exact up to the declaration abstraction.

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// SiteFootprint is the static may-read/may-write footprint of one
// Atomic call site.
type SiteFootprint struct {
	// File is the site's path relative to the module root.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Pkg is the import path of the package containing the site.
	Pkg string `json:"pkg"`
	// Func is the function enclosing the Atomic call.
	Func string `json:"func"`
	// Tx renders the static transaction ID argument: a constant name
	// ("TxMove"), a literal ("2"), or "?" when not constant.
	Tx string `json:"tx"`
	// TxID is the constant transaction ID, -1 when unknown.
	TxID int `json:"txID"`
	// Irrevocable marks AtomicIrrevocable sites.
	Irrevocable bool `json:"irrevocable,omitempty"`
	// Reads and Writes are the may-access sets, sorted. Labels are
	// declaration-abstracted: "pkg/path.varname" for package-level
	// storage, "pkg/path.func.varname" for closure-captured locals,
	// "pkg/path.Type.field" for fields.
	Reads  []string `json:"reads"`
	Writes []string `json:"writes"`
	// Notes lists analysis horizons (dynamic calls, unresolved storage)
	// that make the footprint a lower bound rather than exact.
	Notes []string `json:"notes,omitempty"`
}

// ConflictEdge says sites A and B (indices into Sites; A ≤ B, A == B
// for self-conflicts) may abort each other, via the Shared storage.
type ConflictEdge struct {
	A      int      `json:"a"`
	B      int      `json:"b"`
	Shared []string `json:"shared"`
}

// ConflictGraph is the static conflict structure over Atomic sites.
type ConflictGraph struct {
	Sites []SiteFootprint `json:"sites"`
	Edges []ConflictEdge  `json:"edges"`
}

// NewConflictGraph builds a graph from hand-declared sites, deriving
// the conflict edges — for callers (tests, simulators) that know their
// footprints without a source-analysis pass.
func NewConflictGraph(sites []SiteFootprint) *ConflictGraph {
	g := &ConflictGraph{Sites: sites}
	g.buildEdges()
	return g
}

// Footprint analyzes every Atomic call site in pkgs (excluding test
// files and the STM runtime packages) and returns the static conflict
// graph. moduleRoot relativizes file paths in the output.
func Footprint(pkgs []*Package, moduleRoot string) *ConflictGraph {
	pr := newProgram(pkgs)
	g := &ConflictGraph{}
	for _, pkg := range pkgs {
		for _, site := range atomicSitesIn(pkg) {
			pos := pkg.Fset.Position(site.call.Pos())
			if strings.HasSuffix(pos.Filename, "_test.go") {
				continue
			}
			fp := pr.siteFootprint(pkg, site)
			file := pos.Filename
			if moduleRoot != "" {
				if rel, err := filepath.Rel(moduleRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
					file = filepath.ToSlash(rel)
				}
			}
			g.Sites = append(g.Sites, SiteFootprint{
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
			})
		}
	}
	sort.Slice(g.Sites, func(i, j int) bool {
		a, b := g.Sites[i], g.Sites[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	g.buildEdges()
	return g
}

// buildEdges derives the conflict edges: W(a) ∩ (R(b) ∪ W(b)) in
// either direction.
func (g *ConflictGraph) buildEdges() {
	for i := range g.Sites {
		for j := i; j < len(g.Sites); j++ {
			shared := map[string]bool{}
			intersect(g.Sites[i].Writes, g.Sites[j].Reads, shared)
			intersect(g.Sites[i].Writes, g.Sites[j].Writes, shared)
			intersect(g.Sites[j].Writes, g.Sites[i].Reads, shared)
			if len(shared) == 0 {
				continue
			}
			g.Edges = append(g.Edges, ConflictEdge{A: i, B: j, Shared: sortedKeys(shared)})
		}
	}
}

func intersect(a, b []string, into map[string]bool) {
	set := map[string]bool{}
	for _, x := range a {
		set[x] = true
	}
	for _, x := range b {
		if set[x] {
			into[x] = true
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TxIDPairs returns the conflicting (txID, txID) pairs for edges whose
// sites both have constant transaction IDs and live in the same
// package (static transaction IDs are only unique within one
// program). Feed the result to internal/analyze.CrossCheck to validate
// a profiled model's abort edges against the static graph.
func (g *ConflictGraph) TxIDPairs() [][2]uint16 {
	seen := map[[2]uint16]bool{}
	var out [][2]uint16
	for _, e := range g.Edges {
		a, b := g.Sites[e.A], g.Sites[e.B]
		if a.TxID < 0 || b.TxID < 0 || a.Pkg != b.Pkg {
			continue
		}
		p := [2]uint16{uint16(a.TxID), uint16(b.TxID)}
		if p[0] > p[1] {
			p[0], p[1] = p[1], p[0]
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// RenderText writes the human-readable footprint and conflict graph.
func (g *ConflictGraph) RenderText(w io.Writer) {
	fmt.Fprintf(w, "static transaction footprints (%d sites)\n\n", len(g.Sites))
	for i, s := range g.Sites {
		irrev := ""
		if s.Irrevocable {
			irrev = " irrevocable"
		}
		fmt.Fprintf(w, "[%d] %s:%d tx %s%s (%s, %s)\n", i, s.File, s.Line, s.Tx, irrev, s.Func, s.Pkg)
		fmt.Fprintf(w, "    reads:  %s\n", renderSet(s.Reads))
		fmt.Fprintf(w, "    writes: %s\n", renderSet(s.Writes))
		for _, n := range s.Notes {
			fmt.Fprintf(w, "    note:   %s\n", n)
		}
	}
	fmt.Fprintf(w, "\nstatic conflict graph (%d edges)\n\n", len(g.Edges))
	for _, e := range g.Edges {
		rel := "<->"
		if e.A == e.B {
			rel = "self"
		}
		fmt.Fprintf(w, "[%d] %s [%d] via %s\n", e.A, rel, e.B, strings.Join(e.Shared, ", "))
	}
}

func renderSet(xs []string) string {
	if len(xs) == 0 {
		return "(none)"
	}
	return strings.Join(xs, ", ")
}

// RenderJSON writes the graph as one JSON document.
func (g *ConflictGraph) RenderJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g)
}

// ---- per-site analysis ----

// fpRoot abstracts one storage location.
type fpRoot struct {
	kind  int    // fpConcrete | fpParam | fpUnknown
	label string // concrete label, or a description for unknown roots
	index int    // parameter index for fpParam (-1 = receiver)
	// decl is the rendered position of the storage declaration for
	// concrete roots (zero otherwise); gstm010 reports hotspots there.
	// Rendered (not a token.Pos) so roots from different loads of the
	// same file compare equal.
	decl token.Position
}

const (
	fpConcrete = iota
	fpParam
	fpUnknown
)

// fpAccess is one abstract access.
type fpAccess struct {
	write bool
	root  fpRoot
}

// fpSummary is a function's footprint: accesses relative to its own
// parameters, plus horizon notes.
type fpSummary struct {
	accs  []fpAccess
	notes []string
}

func (s *fpSummary) add(a fpAccess) {
	for _, have := range s.accs {
		if have == a {
			return
		}
	}
	s.accs = append(s.accs, a)
}

func (s *fpSummary) note(n string) {
	for _, have := range s.notes {
		if have == n {
			return
		}
	}
	s.notes = append(s.notes, n)
}

func (s *fpSummary) reads() []string  { return s.labels(false) }
func (s *fpSummary) writes() []string { return s.labels(true) }

func (s *fpSummary) labels(write bool) []string {
	set := map[string]bool{}
	for _, a := range s.accs {
		if a.write == write && a.root.kind == fpConcrete {
			set[a.root.label] = true
		}
	}
	return sortedKeys(set)
}

// nestedAtomicClosures returns the closure bodies of every *other*
// Atomic site in pkg, so a site-level walk does not absorb nested
// sites (they are analyzed separately).
func nestedAtomicClosures(pkg *Package, self *ast.FuncLit) map[ast.Node]bool {
	nested := map[ast.Node]bool{}
	for _, other := range atomicSitesIn(pkg) {
		if other.closure != nil && other.closure != self {
			nested[other.closure] = true
		}
	}
	return nested
}

// siteFootprint computes the footprint of one Atomic site.
func (pr *program) siteFootprint(pkg *Package, site *atomicSite) *fpSummary {
	sum := &fpSummary{}
	body := ast.Node(site.closure)
	params := map[types.Object]int{}
	if site.closure != nil {
		collectParams(pkg, site.closure.Type, nil, params)
	} else {
		// The body is passed as a function value; resolve it when it is
		// a plain reference to a declared function.
		if fn, ok := resolveFuncRef(pkg, site.body); ok {
			if node := pr.node(fn); node != nil {
				callee := pr.summarize(node, map[*funcNode]bool{})
				mergeCall(pkg, sum, callee, nil, nil, params, pr)
				finishNotes(sum)
				return sum
			}
		}
		sum.note("transaction body is not a static closure or declared function; footprint unknown")
		return sum
	}
	// Skip nested Atomic closures (they are their own sites).
	nested := nestedAtomicClosures(pkg, site.closure)
	walk := func(n ast.Node) bool {
		if nested[n] {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			pr.footprintCall(pkg, sum, call, params, map[*funcNode]bool{})
		}
		return true
	}
	ast.Inspect(body, walk)
	finishNotes(sum)
	return sum
}

func finishNotes(sum *fpSummary) {
	for _, a := range sum.accs {
		if a.root.kind == fpUnknown {
			sum.note("unresolved access target: " + a.root.label)
		}
	}
	sort.Strings(sum.notes)
}

// resolveFuncRef resolves an expression to the declared function it
// names, when it is a bare identifier or selector.
func resolveFuncRef(pkg *Package, e ast.Expr) (*types.Func, bool) {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil, false
	}
	fn, ok := pkg.Info.Uses[id].(*types.Func)
	return fn, ok
}

// collectParams maps parameter (and receiver) objects to their
// indices: receiver -1, parameters 0..n-1.
func collectParams(pkg *Package, ft *ast.FuncType, recv *ast.FieldList, params map[types.Object]int) {
	if recv != nil {
		for _, f := range recv.List {
			for _, name := range f.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					params[obj] = -1
				}
			}
		}
	}
	if ft == nil || ft.Params == nil {
		return
	}
	i := 0
	for _, f := range ft.Params.List {
		if len(f.Names) == 0 {
			i++
			continue
		}
		for _, name := range f.Names {
			if obj := pkg.Info.Defs[name]; obj != nil {
				params[obj] = i
			}
			i++
		}
	}
}

// summarize computes (and memoizes) a declared function's footprint
// summary, with accesses to its own parameters left parameter-relative
// for call-site substitution.
func (pr *program) summarize(node *funcNode, visiting map[*funcNode]bool) *fpSummary {
	if s, done := pr.summaries[node]; done {
		return s
	}
	if visiting[node] {
		return &fpSummary{} // recursion: a fixpoint would add nothing new at this abstraction
	}
	visiting[node] = true
	defer delete(visiting, node)

	sum := &fpSummary{}
	params := map[types.Object]int{}
	collectParams(node.pkg, node.decl.Type, node.decl.Recv, params)
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			pr.footprintCall(node.pkg, sum, call, params, visiting)
		}
		return true
	})
	pr.summaries[node] = sum
	return sum
}

// footprintCall classifies one call inside a summarized body: an STM
// primitive contributes accesses directly, a call to a loaded function
// contributes its summary with parameters substituted, and anything
// else that could touch transactional state becomes a horizon note.
func (pr *program) footprintCall(pkg *Package, sum *fpSummary, call *ast.CallExpr, params map[types.Object]int, visiting map[*funcNode]bool) {
	if pkg.calleeBuiltin(call) != "" {
		return
	}
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return // type conversion
	}
	fn := pkg.calleeFunc(call)
	if fn == nil {
		pos := pkg.Fset.Position(call.Pos())
		sum.note(fmt.Sprintf("dynamic call at %s:%d is an analysis horizon (func value or interface dispatch)", filepath.Base(pos.Filename), pos.Line))
		return
	}
	if ops, ok := stmPrimitive(pkg, fn, call); ok {
		for _, op := range ops {
			sum.add(fpAccess{write: op.write, root: resolveRoot(pkg, op.target, params, 0)})
		}
		return
	}
	// Propagate through loaded helper bodies (including helpers that
	// take the handle, e.g. QuadTree.Move). The STM runtimes are
	// opaque: their remaining methods manage the machinery, not user
	// storage.
	if fn.Pkg() != nil && !isSTMPackagePath(fn.Pkg().Path()) {
		if node := pr.node(fn); node != nil {
			callee := pr.summarize(node, visiting)
			recv, args := callParts(call)
			mergeCall(pkg, sum, callee, recv, args, params, pr)
			return
		}
	}
	if _, isAtomic := atomicMethod(fn); isAtomic {
		return // nested Atomic sites are analyzed separately
	}
	// Unknown body: only a problem if transactional state flows in.
	for _, arg := range call.Args {
		if touchesSTMData(pkg.exprType(arg)) {
			sum.note(fmt.Sprintf("call to %s passes transactional storage but its body is not loaded; footprint may be incomplete", callName(fn)))
			return
		}
	}
}

// callParts splits a call into receiver expression (nil for plain
// calls) and argument list.
func callParts(call *ast.CallExpr) (recv ast.Expr, args []ast.Expr) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X, call.Args
	}
	return nil, call.Args
}

// mergeCall folds a callee summary into sum, substituting the callee's
// parameter-relative roots with the call-site arguments.
func mergeCall(pkg *Package, sum *fpSummary, callee *fpSummary, recv ast.Expr, args []ast.Expr, params map[types.Object]int, pr *program) {
	for _, n := range callee.notes {
		sum.note(n)
	}
	for _, a := range callee.accs {
		switch a.root.kind {
		case fpConcrete:
			sum.add(a)
		case fpParam:
			var target ast.Expr
			if a.root.index == -1 {
				target = recv
			} else if a.root.index < len(args) {
				target = args[a.root.index]
			}
			if target == nil {
				sum.add(fpAccess{write: a.write, root: fpRoot{kind: fpUnknown, label: "argument not recoverable at call site"}})
				continue
			}
			sum.add(fpAccess{write: a.write, root: resolveRoot(pkg, target, params, 0)})
		default:
			sum.add(a)
		}
	}
}

// stmOp is one primitive access: the storage expression and direction.
type stmOp struct {
	target ast.Expr
	write  bool
}

// stmPrimitive recognizes the transactional accessor methods: Tx
// reads/writes and the collection operations that carry a handle.
func stmPrimitive(pkg *Package, fn *types.Func, call *ast.CallExpr) ([]stmOp, bool) {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil, false
	}
	recvType := sig.Recv().Type()
	recvExpr, _ := callParts(call)

	if isTxPointer(recvType) {
		if len(call.Args) == 0 {
			return nil, false
		}
		switch fn.Name() {
		case "Read", "ReadFloat":
			return []stmOp{{target: call.Args[0]}}, true
		case "Write", "WriteFloat":
			return []stmOp{{target: call.Args[0], write: true}}, true
		}
		return nil, false
	}

	if _, ok := isSTMDataType(recvType); ok && recvExpr != nil {
		hasTx := false
		for _, arg := range call.Args {
			if isTxPointer(pkg.exprType(arg)) {
				hasTx = true
				break
			}
		}
		if !hasTx {
			return nil, false // raw accessors are gstm003's problem
		}
		switch fn.Name() {
		case "Get", "Contains", "Len":
			return []stmOp{{target: recvExpr}}, true
		case "Set", "Insert":
			return []stmOp{{target: recvExpr, write: true}}, true
		case "Put", "Delete", "Push", "Pop":
			return []stmOp{{target: recvExpr}, {target: recvExpr, write: true}}, true
		}
	}
	return nil, false
}

// touchesSTMData reports whether t is (or directly contains)
// transactional storage or a handle.
func touchesSTMData(t types.Type) bool {
	if t == nil {
		return false
	}
	if isTxPointer(t) {
		return true
	}
	if _, ok := isSTMDataType(t); ok {
		return true
	}
	switch t := t.Underlying().(type) {
	case *types.Slice:
		return touchesSTMData(t.Elem())
	case *types.Array:
		return touchesSTMData(t.Elem())
	case *types.Map:
		return touchesSTMData(t.Elem())
	case *types.Pointer:
		return touchesSTMData(t.Elem())
	}
	return false
}

// maxRootDepth bounds alias tracing through single-assignment locals.
const maxRootDepth = 16

// resolveRoot abstracts a storage expression to its root declaration:
// projections (indexing, dereference, address-of, slicing, Array.At)
// are stripped; fields abstract to their owning named type; locals are
// traced through single assignments and otherwise labeled by their
// declaring function; parameters stay parameter-relative.
func resolveRoot(pkg *Package, e ast.Expr, params map[types.Object]int, depth int) fpRoot {
	if depth > maxRootDepth {
		return fpRoot{kind: fpUnknown, label: "alias chain too deep"}
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.IndexExpr:
		return resolveRoot(pkg, e.X, params, depth+1)
	case *ast.SliceExpr:
		return resolveRoot(pkg, e.X, params, depth+1)
	case *ast.StarExpr:
		return resolveRoot(pkg, e.X, params, depth+1)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return resolveRoot(pkg, e.X, params, depth+1)
		}
	case *ast.CallExpr:
		// Array.At(i) projects a *Var out of its array.
		if fn := pkg.calleeFunc(e); fn != nil && fn.Name() == "At" {
			if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
				if _, ok := isSTMDataType(sig.Recv().Type()); ok {
					if recv, _ := callParts(e); recv != nil {
						return resolveRoot(pkg, recv, params, depth+1)
					}
				}
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			t := sel.Recv()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := types.Unalias(t).(*types.Named); ok && named.Obj().Pkg() != nil {
				return fpRoot{
					kind:  fpConcrete,
					label: named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name,
					decl:  pkg.Fset.Position(sel.Obj().Pos()),
				}
			}
			return fpRoot{kind: fpUnknown, label: "field of unnamed type"}
		}
		// Package-qualified variable: pkgname.Var.
		if obj, ok := pkg.Info.Uses[e.Sel].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return fpRoot{
				kind:  fpConcrete,
				label: obj.Pkg().Path() + "." + obj.Name(),
				decl:  pkg.Fset.Position(obj.Pos()),
			}
		}
	case *ast.Ident:
		obj := pkg.Info.Uses[e]
		if obj == nil {
			obj = pkg.Info.Defs[e]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			break
		}
		if idx, isParam := params[obj]; isParam {
			return fpRoot{kind: fpParam, index: idx}
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return fpRoot{
				kind:  fpConcrete,
				label: v.Pkg().Path() + "." + v.Name(),
				decl:  pkg.Fset.Position(v.Pos()),
			}
		}
		// Local: trace a single assignment to its source; otherwise the
		// local itself is the storage identity (a captured variable
		// holding the container).
		idx := pkg.assignIndex()
		if rhs, traced := idx.rhs[obj]; traced && !idx.dirty[obj] {
			r := resolveRoot(pkg, rhs, params, depth+1)
			if r.kind != fpUnknown {
				return r
			}
		}
		label := v.Name()
		if fname := enclosingFuncName(pkg, v.Pos()); fname != "" {
			label = fname + "." + label
		}
		if v.Pkg() != nil {
			label = v.Pkg().Path() + "." + label
		}
		return fpRoot{kind: fpConcrete, label: label, decl: pkg.Fset.Position(v.Pos())}
	}
	return fpRoot{kind: fpUnknown, label: exprString(pkg, e)}
}

func exprString(pkg *Package, e ast.Expr) string {
	pos := pkg.Fset.Position(e.Pos())
	return fmt.Sprintf("expression at %s:%d", filepath.Base(pos.Filename), pos.Line)
}

// assignState caches the package's single-assignment map for alias
// tracing: rhs maps a local to the unique expression assigned to it;
// dirty marks locals assigned more than once (or mutated), which are
// not traced.
type assignState struct {
	rhs   map[types.Object]ast.Expr
	dirty map[types.Object]bool
}

// assignIndex builds (and caches) the package's assignment index.
func (pkg *Package) assignIndex() *assignState {
	if pkg.assigns != nil {
		return pkg.assigns
	}
	idx := &assignState{rhs: map[types.Object]ast.Expr{}, dirty: map[types.Object]bool{}}
	markDirty := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj := pkg.Info.Uses[id]; obj != nil {
				idx.dirty[obj] = true
			}
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok {
							continue
						}
						if obj := pkg.Info.Defs[id]; obj != nil {
							if _, dup := idx.rhs[obj]; dup {
								idx.dirty[obj] = true
							} else {
								idx.rhs[obj] = n.Rhs[i]
							}
						}
					}
				} else {
					for _, lhs := range n.Lhs {
						markDirty(lhs)
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i, name := range n.Names {
						if obj := pkg.Info.Defs[name]; obj != nil {
							idx.rhs[obj] = n.Values[i]
						}
					}
				}
			case *ast.IncDecStmt:
				markDirty(n.X)
			case *ast.RangeStmt:
				if n.Key != nil {
					markDirty(n.Key)
				}
				if n.Value != nil {
					markDirty(n.Value)
				}
			}
			return true
		})
	}
	pkg.assigns = idx
	return idx
}
