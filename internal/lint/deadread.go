package lint

import (
	"go/ast"
	"go/types"
)

func init() { Register(deadRead{}) }

// deadRead is gstm007: transactional reads whose result is discarded.
//
// A tx.Read whose value is never used is not a harmless no-op: the
// read still enters the attempt's read set, so commit validation now
// covers a word the transaction never needed. Every writer of that
// word becomes a potential conflict — aborts rise, the profiled
// transaction sequences gain edges that no real data dependence
// explains, and the TSA model learns conflict structure that is an
// artifact of the dead read rather than the workload. The same holds
// for read-only collection operations (Get/Contains/Len) in statement
// position. Deliberate read-set widening — subscribing to a word so a
// concurrent writer aborts this transaction — is a legitimate
// technique; spell it `_ = tx.Read(v)` to keep the intent visible,
// exactly like gstm005's `_ =` idiom for Atomic errors.
type deadRead struct{}

func (deadRead) ID() string   { return "gstm007" }
func (deadRead) Name() string { return "dead-read" }
func (deadRead) Doc() string {
	return "flags Read/ReadFloat and read-only collection calls (Get, Contains, Len) in " +
		"statement position inside transaction bodies: the discarded read still widens " +
		"the read set, inflating false conflicts and aborts and distorting the profiled " +
		"conflict structure; write `_ = tx.Read(v)` to document deliberate read-set " +
		"widening"
}

// readOnlyTxMethods are Tx/IrrevTx methods that only read.
var readOnlyTxMethods = map[string]bool{
	"Read":      true,
	"ReadFloat": true,
}

// readOnlyDataMethods are transactional-container methods that only
// read (their tx-handle argument proves they run inside a body).
var readOnlyDataMethods = map[string]bool{
	"Get":      true,
	"Contains": true,
	"Len":      true,
}

func (deadRead) Check(p *Pass) {
	for _, ctx := range p.STMContexts() {
		p.inspectIgnoringNestedContexts(ctx.body, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := p.calleeFunc(call)
			if fn == nil || !snapshotRead(p.Pkg, fn, call) {
				return true
			}
			// Deleting the statement is the mechanical fix: it removes the
			// read-set widening. Deliberate widening is spelled `_ =` and
			// never reaches this report.
			fix := &Fix{
				Message: "delete the dead read",
				Edits:   []TextEdit{p.edit(stmt.Pos(), stmt.End(), "")},
			}
			if name, ok := isSTMDataType(fn.Type().(*types.Signature).Recv().Type()); ok {
				p.ReportFixf(call.Pos(), fix, "result of %s.%s is discarded: the dead read still enters the read set, turning every writer into a false conflict; use the value or document deliberate read-set widening with `_ =`", name, fn.Name())
			} else {
				p.ReportFixf(call.Pos(), fix, "result of %s is discarded: the dead read still enters the read set, turning every writer of that word into a false conflict; use the value or document deliberate read-set widening with `_ =`", callName(fn))
			}
			return true
		})
	}
}

// snapshotRead reports whether call is a read-only transactional
// primitive: a Tx read, or a Get/Contains/Len on transactional storage
// that is handed the transaction handle (the raw setup-time accessors
// are gstm003's). Within one attempt such a call answers the same every
// time.
func snapshotRead(pkg *Package, fn *types.Func, call *ast.CallExpr) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if isTxPointer(recv) {
		return readOnlyTxMethods[fn.Name()]
	}
	if _, ok := isSTMDataType(recv); !ok || !readOnlyDataMethods[fn.Name()] {
		return false
	}
	for _, arg := range call.Args {
		if isTxPointer(pkg.exprType(arg)) {
			return true
		}
	}
	return false
}
