package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// SpanLeak flags spans that are not ended on every return path. Every
// span starter — telemetry.(*Registry).StartSpan and the trace
// collector's StartSpan/StartRoot — returns a (ctx, span) pair. A span
// whose End is skipped on an early error return silently drops its
// latency observation, and the error paths (failed verification, failed
// decryption) are precisely the latencies worth watching; it also drops
// its node from the distributed trace tree, orphaning every child
// started under the returned context. The safe patterns are
// `defer span.End()` right after the start and ending a named span
// before any return can occur.
//
// The check is lexical, not a full CFG: a named span must be ended (or
// defer-ended) with no return statement between the start and the first
// End; spans that escape the function (stored, passed, captured by a
// closure) are not tracked.
var SpanLeak = &Analyzer{
	Name: "spanleak",
	Doc: "reports span results of telemetry.StartSpan and trace StartSpan/StartRoot that are " +
		"dropped or not ended before an early return; defer the End call or end before returning",
	Run: runSpanLeak,
}

func runSpanLeak(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		file := f.AST
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					pass.analyzeSpanScope(file, fn.Body)
				}
			case *ast.FuncLit:
				pass.analyzeSpanScope(file, fn.Body)
			}
			return true
		})
	}
}

// scopedInspect walks body without descending into nested function
// literals: returns and span uses inside a closure belong to the closure.
func scopedInspect(body *ast.BlockStmt, visit func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return visit(n)
	})
}

// spanVar tracks one named span within a function scope.
type spanVar struct {
	name      string
	obj       types.Object
	assignPos token.Pos
}

func (p *Pass) analyzeSpanScope(file *ast.File, body *ast.BlockStmt) {
	var (
		spans      []*spanVar
		returnPos  []token.Pos
		deferCalls = map[*ast.CallExpr]bool{}
	)

	scopedInspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ReturnStmt:
			returnPos = append(returnPos, st.Pos())
		case *ast.DeferStmt:
			deferCalls[st.Call] = true
			if callee, ok := p.CalleeOf(file, st.Call); ok && isSpanStart(callee) {
				p.Reportf(st.Pos(), "deferred %s starts the span at function exit and never ends it", callee.Name)
			}
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if callee, ok := p.CalleeOf(file, call); ok && isSpanStart(callee) {
					p.Reportf(call.Pos(), "result of %s is discarded; the span is never ended", callee.Name)
				}
			}
		case *ast.AssignStmt:
			// The span is the second value of a two-variable assignment
			// from a single starter call.
			if len(st.Rhs) != 1 || len(st.Lhs) != 2 {
				return true
			}
			call, ok := st.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			callee, ok := p.CalleeOf(file, call)
			if !ok || !isSpanStart(callee) {
				return true
			}
			id, ok := st.Lhs[1].(*ast.Ident)
			if !ok {
				return true
			}
			if id.Name == "_" {
				p.Reportf(id.Pos(), "span result of %s is discarded; the span is never ended", callee.Name)
				return true
			}
			spans = append(spans, &spanVar{name: id.Name, obj: p.identObj(id), assignPos: id.Pos()})
		}
		return true
	})
	sort.Slice(returnPos, func(i, j int) bool { return returnPos[i] < returnPos[j] })

	for _, sv := range spans {
		p.checkSpanVar(file, body, sv, returnPos, deferCalls)
	}
}

// isSpanStart matches the span starters, each returning a (ctx, span)
// pair: telemetry.(*Registry).StartSpan and trace.(*Collector).StartSpan
// and StartRoot.
func isSpanStart(c Callee) bool {
	switch c.Name {
	case "StartSpan":
		return c.InPkg("internal/telemetry") || c.InPkg("internal/trace")
	case "StartRoot":
		return c.InPkg("internal/trace")
	}
	return false
}

// checkSpanVar verifies that sv is ended before any return following its
// creation.
func (p *Pass) checkSpanVar(file *ast.File, body *ast.BlockStmt, sv *spanVar,
	returnPos []token.Pos, deferCalls map[*ast.CallExpr]bool) {

	var (
		endPos      []token.Pos // non-deferred v.End() calls
		deferEndPos []token.Pos // defer v.End() statements
		escapes     bool
	)
	endReceivers := map[*ast.Ident]bool{}

	// First pass: locate End calls on sv so the use scan below can tell
	// End receivers apart from escaping uses.
	scopedInspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "End" {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || !p.sameVar(id, sv) {
			return true
		}
		endReceivers[id] = true
		if deferCalls[call] {
			deferEndPos = append(deferEndPos, call.Pos())
		} else {
			endPos = append(endPos, call.Pos())
		}
		return true
	})

	// Unlike the scans above, this one descends into nested function
	// literals: a closure that captures the span owns its lifetime.
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id.Pos() == sv.assignPos || endReceivers[id] {
			return true
		}
		if p.sameVar(id, sv) {
			escapes = true
		}
		return true
	})
	if escapes {
		return // stored, passed, or re-used: out of lexical reach
	}

	if len(endPos) == 0 && len(deferEndPos) == 0 {
		p.Reportf(sv.assignPos, "telemetry span %s is never ended; defer %s.End() or end it on every path",
			sv.name, sv.name)
		return
	}

	// The span is covered from the first (defer-)End onward; any return
	// between creation and that point leaks it.
	all := append(append([]token.Pos(nil), endPos...), deferEndPos...)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	covered := all[0]
	for _, ret := range returnPos {
		if ret > sv.assignPos && ret < covered {
			p.Reportf(ret, "return leaks telemetry span %s (started at line %d, not yet ended); defer %s.End() or end it before returning",
				sv.name, p.Fset.Position(sv.assignPos).Line, sv.name)
		}
	}
}

// sameVar matches an identifier against the tracked span variable, by
// object when type information exists, by name otherwise.
func (p *Pass) sameVar(id *ast.Ident, sv *spanVar) bool {
	if sv.obj != nil {
		return p.identObj(id) == sv.obj
	}
	return id.Name == sv.name
}
