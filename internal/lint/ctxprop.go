package lint

import (
	"go/ast"
	"go/types"
)

// CtxProp flags traced call chains that derive a span context and then
// pass the *parent* context downstream while the span is still open.
// The span starters — telemetry.StartSpan, trace StartSpan/StartRoot —
// return a derived context carrying the new span; every call made under
// that span must receive the derived context, or the downstream spans
// attach to the parent and the trace tree silently loses a level (the
// end-to-end tracing of the portal → pool → relay → TFC document path
// then mis-reports where the time went).
//
// The check is path-sensitive over the intraprocedural CFG: a call
// taking the parent context as a direct argument is flagged only when it
// is reachable from the span start without an intervening non-deferred
// span End (a deferred End keeps the span open for the whole body).
// Three shapes stay clean by construction:
//
//   - ctx, span := tel.StartSpan(ctx, ...) — the derived context
//     shadows the parent, which becomes unreachable;
//   - _, span := tel.StartSpan(ctx, ...) in a leaf function that makes
//     no downstream context-carrying calls;
//   - span.End() before the parent context is used again — sequential
//     sibling spans under one parent.
var CtxProp = &Analyzer{
	Name: "ctxprop",
	Doc: "reports calls that receive the parent context while a derived " +
		"trace span context is open; thread the derived context downstream " +
		"or end the span first",
	Run: runCtxProp,
}

func runCtxProp(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		file := f.AST
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					pass.checkCtxProp(file, fn.Body)
				}
			case *ast.FuncLit:
				pass.checkCtxProp(file, fn.Body)
			}
			return true
		})
	}
}

// ctxDerivation is one span-start site: derived, span := Start(parent, ...).
type ctxDerivation struct {
	call    *ast.CallExpr
	callee  Callee
	parent  *ast.Ident // the context argument passed to the starter
	derived *ast.Ident // Lhs[0]; name "_" when discarded
	span    *spanVar   // Lhs[1]
}

func (p *Pass) checkCtxProp(file *ast.File, body *ast.BlockStmt) {
	var (
		derivs     []*ctxDerivation
		deferCalls = map[*ast.CallExpr]bool{}
	)
	scopedInspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.DeferStmt:
			deferCalls[st.Call] = true
		case *ast.AssignStmt:
			if d := p.spanStartOf(file, st); d != nil {
				derivs = append(derivs, d)
			}
		}
		return true
	})
	if len(derivs) == 0 {
		return
	}
	cfg := NewCFG(body)
	for _, d := range derivs {
		p.checkDerivation(file, body, cfg, d, deferCalls)
	}
}

// spanStartOf recognizes `derived, span := Start...(parent, ...)` and
// returns the derivation, or nil. Derivations that shadow the parent
// (`ctx, span := ...StartSpan(ctx, ...)`) are inherently safe — the parent
// name now denotes the derived context — and return nil too.
func (p *Pass) spanStartOf(file *ast.File, st *ast.AssignStmt) *ctxDerivation {
	if len(st.Rhs) != 1 || len(st.Lhs) != 2 {
		return nil
	}
	call, ok := st.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	callee, ok := p.CalleeOf(file, call)
	if !ok || !isSpanStart(callee) {
		return nil
	}
	parent, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok || parent.Name == "_" {
		return nil // parent is an expression (req.Context(), ...): untracked
	}
	derived, ok := st.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	if derived.Name == parent.Name {
		return nil // shadowed: the stale parent is unreachable below
	}
	span, ok := st.Lhs[1].(*ast.Ident)
	if !ok || span.Name == "_" {
		return nil // spanleak reports the discarded span
	}
	return &ctxDerivation{
		call:    call,
		callee:  callee,
		parent:  parent,
		derived: derived,
		span:    &spanVar{name: span.Name, obj: p.identObj(span), assignPos: span.Pos()},
	}
}

// checkDerivation reports calls that receive d.parent on a path from the
// span start with d.span still open.
func (p *Pass) checkDerivation(file *ast.File, body *ast.BlockStmt, cfg *CFG,
	d *ctxDerivation, deferCalls map[*ast.CallExpr]bool) {

	parentObj := p.identObj(d.parent)
	startPt, ok := cfg.PointOf(d.call)
	if !ok {
		return
	}

	// Non-deferred End calls on the span close it; a deferred End runs at
	// function exit and blocks nothing.
	ends := map[*ast.CallExpr]bool{}
	scopedInspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || deferCalls[call] {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "End" {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && p.sameVar(id, d.span) {
			ends[call] = true
		}
		return true
	})
	spanClosed := func(n ast.Node) bool {
		hit := false
		ast.Inspect(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok && ends[call] {
				hit = true
			}
			return !hit
		})
		return hit
	}

	// Candidate leaks: calls taking the parent context as a direct
	// argument. Deferred calls run at function exit, past the span's
	// lifetime, and are skipped.
	scopedInspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call == d.call || deferCalls[call] {
			return true
		}
		if !p.takesIdentArg(call, d.parent, parentObj) {
			return true
		}
		pt, ok := cfg.PointOf(call)
		if !ok {
			return true
		}
		if !cfg.PathExists(startPt, pt, spanClosed) {
			return true
		}
		what := "the derived context"
		if d.derived.Name != "_" {
			what = d.derived.Name
		}
		line := p.Fset.Position(d.call.Pos()).Line
		p.Reportf(call.Pos(),
			"call receives the parent context %s while the span of %s (line %d) is open; downstream spans will attach to the parent, orphaning this span's subtree — pass %s instead or end %s first",
			d.parent.Name, d.callee.String(), line, what, d.span.name)
		return true
	})
}

// takesIdentArg reports whether call has id (matched by object when
// resolved, by name otherwise) as a direct argument.
func (p *Pass) takesIdentArg(call *ast.CallExpr, id *ast.Ident, obj types.Object) bool {
	for _, arg := range call.Args {
		a, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok {
			continue
		}
		if obj != nil {
			if p.identObj(a) == obj {
				return true
			}
			continue
		}
		if a.Name == id.Name {
			return true
		}
	}
	return false
}
