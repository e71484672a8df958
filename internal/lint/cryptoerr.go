package lint

import (
	"go/ast"
	"regexp"
)

// cryptoErrPkgs are the packages whose sign/verify/encrypt/decrypt errors
// are protocol failures: ignoring them accepts forged or tampered
// documents. Matched by import-path suffix.
var cryptoErrPkgs = []string{
	"internal/dsig",
	"internal/xmlenc",
	"internal/pki",
	"internal/aea",
	"internal/document",
	"internal/secpol",
	"internal/tfc",
	"internal/audit",
}

// cryptoErrFunc matches the protocol-critical operation names within those
// packages.
var cryptoErrFunc = regexp.MustCompile(`^(Sign|Verify|Encrypt|Decrypt|Reveal|Audit)`)

// durabilityPkgs are the packages whose delivery-journal and WAL errors
// are durability failures: a discarded Enqueue or Ack error means a
// document hop was silently lost or will be replayed forever, and a
// discarded pool Sync or Checkpoint error means the caller believes
// state is on disk when it is not — both break the durability contract
// just as surely as a discarded Verify error breaks the trust chain. The
// same goes for a table write (pool.DocTable, a *pool.Table or a
// poolcluster session): a discarded Put error acknowledges a hop whose
// cell the pool refused.
var durabilityPkgs = []string{
	"internal/relay",
	"internal/pool",
	"internal/poolcluster",
	"internal/wal",
}

// durabilityFunc matches the journal-mutating operations within those
// packages (exact names: the relay and pool APIs have no prefix
// convention).
var durabilityFunc = regexp.MustCompile(`^(Enqueue|Append|Ack|Fail|DeadLetter|Requeue|Drop|Deliver|Sync|Checkpoint|Rewrite|Mutate|Put|PutCtx|Delete)$`)

// CryptoErr flags discarded or unchecked error returns from the document
// crypto path and the relay delivery journal. In an engine-less WfMS the
// verification code IS the trust boundary: `_, _ = doc.VerifyAll(reg)`
// silently accepts a document whose cascade no longer verifies — and a
// dropped relay journal error silently loses a delivery. Test files are
// exempt — provoking and discarding failures is what they are for.
var CryptoErr = &Analyzer{
	Name: "cryptoerr",
	Doc: "reports discarded error results of dsig/xmlenc/pki/aea/document " +
		"sign, verify, encrypt and decrypt calls, of relay outbox/delivery " +
		"operations, of pool/wal/os durability syncs, checkpoints and rewrites, " +
		"and of pool/poolcluster table writes " +
		"(exempt in _test.go files)",
	Run: runCryptoErr,
}

func runCryptoErr(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		if f.Test {
			continue
		}
		file := f.AST
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					pass.checkDiscardedCall(file, call, "its results are discarded")
				}
			case *ast.GoStmt:
				pass.checkDiscardedCall(file, st.Call, "its error cannot be observed from a go statement")
			case *ast.DeferStmt:
				pass.checkDiscardedCall(file, st.Call, "its error cannot be observed from a deferred call")
			case *ast.AssignStmt:
				pass.checkBlankedErrors(file, st)
			}
			return true
		})
	}
}

// isCryptoCall reports whether the call targets a protocol-critical
// function — document crypto or relay journal — returning the callee for
// the message.
func (p *Pass) isCryptoCall(file *ast.File, call *ast.CallExpr) (Callee, bool) {
	callee, ok := p.CalleeOf(file, call)
	if !ok {
		return Callee{}, false
	}
	if cryptoErrFunc.MatchString(callee.Name) {
		for _, suffix := range cryptoErrPkgs {
			if callee.InPkg(suffix) {
				return callee, true
			}
		}
	}
	if durabilityFunc.MatchString(callee.Name) {
		for _, suffix := range durabilityPkgs {
			if callee.InPkg(suffix) {
				return callee, true
			}
		}
	}
	// (os.File).Sync is the raw durability primitive under every WAL: a
	// discarded Sync error means acknowledged bytes may not be on disk.
	if callee.Name == "Sync" && callee.PkgPath == "os" {
		return callee, true
	}
	return Callee{}, false
}

// checkDiscardedCall reports a crypto call whose results (including the
// error) are thrown away wholesale.
func (p *Pass) checkDiscardedCall(file *ast.File, call *ast.CallExpr, why string) {
	callee, ok := p.isCryptoCall(file, call)
	if !ok {
		return
	}
	if idxs, typed := p.ErrorResultIndexes(call); typed && len(idxs) == 0 {
		return // provably returns no error
	}
	p.Reportf(call.Pos(), "error returned by %s is unchecked: %s", callee, why)
}

// checkBlankedErrors reports assignments that bind a crypto call's error
// result to the blank identifier (`n, _ := doc.VerifyAll(reg)`).
func (p *Pass) checkBlankedErrors(file *ast.File, st *ast.AssignStmt) {
	// Match the single-call forms: x, _ := f() and parallel a, b = f(), g()
	// with one result each.
	if len(st.Rhs) == 1 {
		call, ok := st.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		callee, ok := p.isCryptoCall(file, call)
		if !ok {
			return
		}
		idxs, typed := p.ErrorResultIndexes(call)
		if !typed {
			// Heuristic without type information: these APIs return the
			// error last.
			idxs = []int{len(st.Lhs) - 1}
		}
		for _, i := range idxs {
			if i < len(st.Lhs) && isBlank(st.Lhs[i]) {
				p.Reportf(st.Lhs[i].Pos(), "error returned by %s is assigned to _; handle it or route it to the caller", callee)
			}
		}
		return
	}
	for i, rhs := range st.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || i >= len(st.Lhs) || !isBlank(st.Lhs[i]) {
			continue
		}
		callee, ok := p.isCryptoCall(file, call)
		if !ok {
			continue
		}
		if idxs, typed := p.ErrorResultIndexes(call); typed && len(idxs) == 0 {
			continue
		}
		p.Reportf(st.Lhs[i].Pos(), "error returned by %s is assigned to _; handle it or route it to the caller", callee)
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
