package lint

import (
	"go/ast"
	"go/token"
)

func init() { Register(unboundedLoop{}) }

// unboundedLoop is gstm009: a statically-unbounded loop inside a
// transaction body.
//
// A transaction body re-executes under retry and, in TL2, validates
// its whole read set at commit; a loop with no static bound — no
// three-clause condition, no break/return escaping it, no condition
// term the body updates — can only leave through a panic or through
// the transactional snapshot changing underneath it. Spinning on
// transactional state inside a transaction is the classic STM livelock
// shape: the spin widens the read set every iteration, the eventual
// conflicting commit aborts the whole attempt, and the retry starts
// the spin over. With deadlines (AtomicCtx) the loop burns the entire
// budget; without them it can wedge a thread and starve the commit
// gate.
type unboundedLoop struct{}

func (unboundedLoop) ID() string   { return "gstm009" }
func (unboundedLoop) Name() string { return "unbounded-loop" }
func (unboundedLoop) Doc() string {
	return "flags statically-unbounded loops inside transaction bodies (no bound, no " +
		"escaping break/return, no condition term updated in the body): under retry such " +
		"a loop livelocks or exhausts any deadline; bound it, add an escape, or move the " +
		"wait outside the transaction"
}

func (c unboundedLoop) Check(p *Pass) {
	for _, ctx := range p.STMContexts() {
		kind := "transaction"
		if !ctx.retryable {
			kind = "irrevocable transaction"
		}
		p.inspectIgnoringNestedContexts(ctx.body, func(n ast.Node) bool {
			f, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			if unboundedFor(p.Pkg, f) {
				p.Reportf(f.Pos(), "statically unbounded loop in a %s body: nothing bounds it or escapes it, so it can livelock the attempt or exhaust any deadline; bound the loop or move the wait outside the transaction", kind)
			}
			return true
		})
	}
}

// unboundedFor reports whether a for statement is statically unbounded:
// no three-clause bound, no break/return/goto escaping it, and no
// condition term updated in the body. Such a loop can only terminate
// through a panic or through the transactional snapshot changing under
// it.
func unboundedFor(pkg *Package, f *ast.ForStmt) bool {
	if f.Init != nil && f.Cond != nil && f.Post != nil {
		return false
	}
	if loopEscapes(f.Body) {
		return false
	}
	return f.Cond == nil || !condMayVary(pkg, f)
}

// loopEscapes reports whether body contains a statement that exits the
// enclosing loop: a return, a goto, a labeled break, or an unlabeled
// break not captured by a nested loop/switch/select. Nested function
// literals are opaque (their returns do not exit this loop).
func loopEscapes(body ast.Node) bool {
	found := false
	var visit func(n ast.Node, captured bool)
	visit = func(n ast.Node, captured bool) {
		if found || n == nil {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if found {
				return false
			}
			if m == n {
				return true
			}
			switch s := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				visit(s, true)
				return false
			case *ast.ReturnStmt:
				found = true
				return false
			case *ast.BranchStmt:
				switch s.Tok {
				case token.BREAK:
					// A labeled break may target an outer construct; treat
					// it as an escape (conservative: fewer reports).
					if s.Label != nil || !captured {
						found = true
					}
				case token.GOTO:
					found = true
				}
				return false
			}
			return true
		})
	}
	visit(body, false)
	return found
}

// condMayVary reports whether the loop condition can plausibly change
// across iterations: a condition term is assigned in the body, or the
// condition calls something other than a read-only transactional
// primitive (snapshot reads repeat the same answer inside one attempt;
// any other call might not), or it receives from a channel.
func condMayVary(pkg *Package, f *ast.ForStmt) bool {
	varies := false
	ast.Inspect(f.Cond, func(n ast.Node) bool {
		if varies {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				varies = true // channel receive
				return false
			}
		case *ast.CallExpr:
			if pkg.calleeBuiltin(n) != "" {
				return true // len/cap of a term judged by its idents
			}
			if fn := pkg.calleeFunc(n); fn != nil && snapshotRead(pkg, fn, n) {
				return true // pure snapshot read: stable within an attempt
			}
			varies = true // dynamic call, write (e.g. Pop) or arbitrary call: may observe anything
			return false
		}
		return true
	})
	if varies {
		return true
	}
	// Condition terms assigned in the body (including inside nested
	// closures — conservatively assume those run).
	terms := map[string]bool{}
	ast.Inspect(f.Cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name != "_" {
			terms[id.Name] = true
		}
		return true
	})
	assigned := false
	mark := func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && terms[id.Name] {
				assigned = true
			}
			return !assigned
		})
	}
	ast.Inspect(f.Body, func(n ast.Node) bool {
		if assigned {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X) // address taken: may be written elsewhere
			}
		}
		return true
	})
	return assigned
}
