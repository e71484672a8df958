package lint

import (
	"go/ast"
	"sort"
	"strings"
)

// ackDurablePkgs are the packages whose append/sync/checkpoint calls
// constitute the durability point of a write: once one of them returns
// nil, the write survives a crash. Matched by import-path suffix so the
// rule works on testdata fixture modules too.
var ackDurablePkgs = []string{
	"internal/pool",
	"internal/poolcluster",
	"internal/relay",
	"internal/tfc",
	"internal/wal",
}

// ackDurableWords are the identifier words marking a durable-write call
// within those packages (or (os.File).Sync anywhere).
var ackDurableWords = map[string]bool{
	"append":     true,
	"sync":       true,
	"journal":    true,
	"checkpoint": true,
	"persist":    true,
	"flush":      true,
	"wal":        true,
	"mutate":     true,
}

// ackWords are the identifier words marking a call that signals success
// to a remote party — an HTTP response, a protocol acknowledgement, a
// notification. Ack-named operations *inside* the durability packages
// (relay's Outbox.Ack, for one) are excluded: there the "ack" is itself
// a journal append, not an outward promise.
var ackWords = map[string]bool{
	"ack":         true,
	"acked":       true,
	"acknowledge": true,
	"respond":     true,
	"reply":       true,
	"notify":      true,
}

// AckOrder flags functions that can acknowledge a write before making it
// durable. The WAL protocol of the pool, relay and TFC tiers is
// append → sync → ack: the moment a success response leaves the process,
// the write it confirms must already be on disk, or a crash in the gap
// silently loses an acknowledged update (exactly the PR 5 family of
// bugs: the TFC acked record submissions whose replay-guard journaling
// had been skipped or had failed).
//
// The check is path-sensitive over the intraprocedural CFG: an
// acknowledgement call A is flagged for a durable call D when (a) D is
// still ahead of A on some path, and (b) some path from function entry
// reaches A without executing D itself. Condition (a) keeps pure
// error-responders clean — a validation NACK followed by an immediate
// return promises nothing durable; condition (b) keeps the
// journal-first-then-ack loop body clean (the "next iteration's append"
// reachable over the back edge is the same call that already dominates
// the ack) while still catching an append whose fsync is ahead.
var AckOrder = &Analyzer{
	Name: "ackorder",
	Doc: "reports paths where a success acknowledgement executes before the " +
		"corresponding pool/poolcluster/relay/tfc/wal append or sync; journal " +
		"first, then ack (exempt in _test.go files)",
	Run: runAckOrder,
}

func runAckOrder(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		if f.Test {
			continue
		}
		file := f.AST
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					pass.checkAckOrder(file, fn.Body)
				}
			case *ast.FuncLit:
				pass.checkAckOrder(file, fn.Body)
			}
			return true
		})
	}
}

// classifyAckCalls partitions the top-level calls of body (closures
// excluded — they are analyzed as their own scope) into acknowledgement
// and durable-write calls.
func (p *Pass) classifyAckCalls(file *ast.File, body *ast.BlockStmt) (acks, durs map[*ast.CallExpr]Callee) {
	acks = map[*ast.CallExpr]Callee{}
	durs = map[*ast.CallExpr]Callee{}
	scopedInspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee, ok := p.CalleeOf(file, call)
		if !ok {
			return true
		}
		switch {
		case isDurableWrite(callee):
			durs[call] = callee
		case isAckCall(callee):
			acks[call] = callee
		}
		return true
	})
	return acks, durs
}

func isDurableWrite(c Callee) bool {
	if c.Recv == "File" && c.Name == "Sync" && c.PkgPath == "os" {
		return true
	}
	inDurablePkg := false
	for _, suffix := range ackDurablePkgs {
		if c.InPkg(suffix) {
			inDurablePkg = true
			break
		}
	}
	if !inDurablePkg {
		return false
	}
	for _, w := range splitWords(c.Name) {
		if ackDurableWords[w] {
			return true
		}
	}
	return false
}

func isAckCall(c Callee) bool {
	// Ack-named operations inside the durability packages are journal
	// mutations, not outward acknowledgements.
	for _, suffix := range ackDurablePkgs {
		if c.InPkg(suffix) {
			return false
		}
	}
	for _, w := range splitWords(c.Name) {
		if ackWords[w] {
			return true
		}
	}
	return false
}

func (p *Pass) checkAckOrder(file *ast.File, body *ast.BlockStmt) {
	acks, durs := p.classifyAckCalls(file, body)
	if len(acks) == 0 || len(durs) == 0 {
		return
	}
	cfg := NewCFG(body)

	// executes returns a stop predicate matching the specific call dur.
	executes := func(dur *ast.CallExpr) func(ast.Node) bool {
		return func(n ast.Node) bool {
			hit := false
			ast.Inspect(n, func(m ast.Node) bool {
				if m == ast.Node(dur) {
					hit = true
				}
				return !hit
			})
			return hit
		}
	}

	for ack, ackCallee := range acks {
		ackPt, ok := cfg.PointOf(ack)
		if !ok {
			continue
		}
		var pending []string
		for dur, durCallee := range durs {
			durPt, ok := cfg.PointOf(dur)
			if !ok {
				continue
			}
			// (a) Is this durable write still ahead of the ack on some
			// path — is the ack vouching for a write yet to happen?
			if !cfg.PathExists(ackPt, durPt, nil) {
				continue
			}
			// (b) Can the ack run without this durable call having
			// executed? If every entry path passes it, the "write ahead"
			// is just the next loop iteration's.
			if !cfg.PathExists(cfg.EntryPoint(), ackPt, executes(dur)) {
				continue
			}
			pending = append(pending, durCallee.String())
		}
		if len(pending) == 0 {
			continue
		}
		p.Reportf(ack.Pos(),
			"%s acknowledges success before %s makes the write durable; a crash between the two loses an acknowledged update — append and sync the journal first, then ack",
			ackCallee.String(), strings.Join(uniqueSorted(pending), ", "))
	}
}

// uniqueSorted returns the sorted, deduplicated elements of xs.
func uniqueSorted(xs []string) []string {
	sort.Strings(xs)
	var out []string
	for _, x := range xs {
		if len(out) == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
