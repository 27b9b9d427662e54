package lint

// Interprocedural layer: a module-wide view over every package loaded
// into one Run, indexing function bodies across package boundaries so
// checkers can follow call chains out of a transaction body into plain
// helpers.
//
// Static calls (direct function calls and method calls on concrete
// receivers) resolve precisely. Dynamic dispatch — interface methods,
// func values, bound method values — cannot be resolved without a
// whole-program pointer analysis, so traversals stop there instead of
// guessing.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// program is the cross-package view shared by every Pass of one Run.
type program struct {
	pkgs []*Package
	// funcs indexes every function declaration with a body in the
	// loaded packages by its stable key.
	funcs map[string]*funcNode
	// terminals memoizes gstm006's reachable-effect computation.
	terminals map[*funcNode][]effectTerminal
}

// funcNode is one declared function (or method) with its body and the
// package whose type info covers that body.
type funcNode struct {
	key  string
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
}

// name renders the node for diagnostics: Type.Method or funcname.
func (n *funcNode) name() string { return callName(n.fn) }

// funcKey builds a stable cross-package key for fn. Different loads of
// the same package (a lint target with its tests vs the same package
// type-checked as a dependency) produce distinct *types.Func objects
// for the same declaration; the key reconciles them.
func funcKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	key := fn.Pkg().Path() + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := types.Unalias(t).(*types.Named); ok {
			key += "(" + named.Obj().Name() + ")."
		}
	}
	return key + fn.Name()
}

// newProgram indexes every function declaration in pkgs. Earlier
// packages win on key collisions.
func newProgram(pkgs []*Package) *program {
	pr := &program{
		pkgs:      pkgs,
		funcs:     map[string]*funcNode{},
		terminals: map[*funcNode][]effectTerminal{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				key := funcKey(fn)
				if key == "" {
					continue
				}
				if _, dup := pr.funcs[key]; !dup {
					pr.funcs[key] = &funcNode{key: key, fn: fn, decl: fd, pkg: pkg}
				}
			}
		}
	}
	return pr
}

// node resolves a *types.Func (from any package's type info) to the
// indexed declaration, or nil when the body is outside the loaded set.
func (pr *program) node(fn *types.Func) *funcNode {
	if pr == nil || fn == nil {
		return nil
	}
	return pr.funcs[funcKey(fn)]
}

// hasTxParam reports whether fn's signature takes a transaction handle
// — such a function is a transactional context of its own and is
// checked directly (gstm001..), so interprocedural traversals stop at
// it instead of descending.
func hasTxParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isTxPointer(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// traversable reports whether an interprocedural walk may descend into
// callee: its body must be loaded, it must not take a transaction
// handle (then it is a context, covered directly), and it must not be
// part of an STM runtime (the runtime legitimately spins and blocks).
func (pr *program) traversable(callee *types.Func) *funcNode {
	if callee == nil || callee.Pkg() == nil {
		return nil
	}
	if isSTMImplPackage(callee.Pkg().Path()) {
		return nil
	}
	if hasTxParam(callee) {
		return nil
	}
	if _, isAtomic := atomicMethod(callee); isAtomic {
		return nil
	}
	return pr.node(callee)
}

// atomicSite is one Atomic/AtomicIrrevocable call expression, with the
// static transaction ID argument rendered when it is constant.
type atomicSite struct {
	call *ast.CallExpr
	// body is the transaction-body argument (AtomicCtx shifts it one
	// position right of the Atomic/AtomicIrrevocable layout).
	body ast.Expr
	// closure is the function-literal body argument (nil when the body
	// is passed as a named function or variable).
	closure *ast.FuncLit
	// txLabel renders the static transaction ID for humans: the name of
	// the constant when the argument is a named constant ("TxMove"),
	// the literal value when constant ("2"), "?" otherwise.
	txLabel string
}

// atomicSitesIn finds every Atomic/AtomicCtx call site in pkg
// (skipping STM implementation packages, which host the machinery
// itself). AtomicCtx's leading context argument shifts the transaction
// ID and body one position right.
func atomicSitesIn(pkg *Package) []*atomicSite {
	var sites []*atomicSite
	if isSTMImplPackage(pkg.Path) {
		return nil
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := atomicMethod(pkg.calleeFunc(call))
			if !ok {
				return true
			}
			shift := 0
			if name == "AtomicCtx" {
				shift = 1
			}
			if len(call.Args) < 3+shift {
				return true
			}
			site := &atomicSite{call: call, body: call.Args[2+shift], txLabel: "?"}
			if fl, ok := ast.Unparen(site.body).(*ast.FuncLit); ok {
				site.closure = fl
			}
			txArg := ast.Unparen(call.Args[1+shift])
			if tv, ok := pkg.Info.Types[txArg]; ok && tv.Value != nil {
				site.txLabel = tv.Value.ExactString()
			}
			if name := constName(pkg, txArg); name != "" {
				site.txLabel = name
			}
			sites = append(sites, site)
			return true
		})
	}
	return sites
}

// constName returns the name of the named constant an expression
// refers to ("" when it is not a plain constant reference).
func constName(pkg *Package, e ast.Expr) string {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return ""
	}
	if c, ok := pkg.Info.Uses[id].(*types.Const); ok {
		return c.Name()
	}
	return ""
}

// closureLabels maps each Atomic closure body in pkg to a short label
// for chain diagnostics: the transaction ID ("TxMove", "2") when
// constant, otherwise the enclosing function's name.
func closureLabels(pkg *Package) map[ast.Node]string {
	labels := map[ast.Node]string{}
	for _, site := range atomicSitesIn(pkg) {
		if site.closure == nil {
			continue
		}
		if site.txLabel != "?" {
			labels[site.closure] = "tx " + site.txLabel
		} else if name := enclosingFuncName(pkg, site.call.Pos()); name != "" {
			labels[site.closure] = name
		}
	}
	return labels
}

// enclosingFuncName returns the name of the function declaration
// containing pos ("" at package scope).
func enclosingFuncName(pkg *Package, pos token.Pos) string {
	for _, f := range pkg.Files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && pos >= fd.Pos() && pos <= fd.End() {
				return fd.Name.Name
			}
		}
	}
	return ""
}
