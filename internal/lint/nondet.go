package lint

import (
	"go/ast"
	"regexp"
	"strings"
)

// nonDetPkgs are the verification packages: code there re-derives digests
// and checks cascade signatures, and must produce the same verdict on
// every replay of the same document. Generators and benchmarks
// (internal/wfgen, cmd/drabench) are deliberately NOT in scope — math/rand
// is legitimate workload-synthesis machinery there.
var nonDetPkgs = []string{
	"internal/dsig",
	"internal/aea",
	"internal/tfc",
	"internal/document",
	"internal/xmlenc",
	"internal/pki",
	"internal/audit",
	"internal/secpol",
}

var verifyName = regexp.MustCompile(`(?i)verify`)

// recoveryPkgs are the durability packages: crash recovery must rebuild
// byte-identical state from the same WAL and checkpoints on every boot,
// so replay/restore paths may not consult the wall clock or a PRNG. The
// math/rand import ban does NOT extend here — relay legitimately uses it
// for retry jitter outside the recovery path.
var recoveryPkgs = []string{
	"internal/pool",
	"internal/relay",
	"internal/wal",
}

// recoveryName seeds the reachability walk in recovery packages.
var recoveryName = regexp.MustCompile(`(?i)(recover|replay|restore)`)

// NonDeterminism flags wall-clock and pseudo-random inputs on signature-
// verification and crash-recovery paths. Cascade verification must be
// reproducible: if re-verifying yesterday's document gives a different
// answer because the verifier consulted time.Now or math/rand,
// nonrepudiation is void. Recovery must be just as deterministic: replay
// that stamps cells with boot-time values diverges from the pre-crash
// state. The rule reports (a) any math/rand import in a verification
// package and (b) time.Now / time.Since / time.Until / math/rand calls
// in functions reachable, within the package, from a function whose name
// contains "Verify" (verification packages) or "Recover"/"Replay"/
// "Restore" (durability packages).
var NonDeterminism = &Analyzer{
	Name: "nondeterminism",
	Doc: "reports time.Now and math/rand reachable from signature-verification " +
		"paths in the crypto packages (dsig, aea, tfc, document, …) and from " +
		"recovery/replay paths in the durability packages (pool, relay, wal)",
	Run: runNonDeterminism,
}

func runNonDeterminism(pass *Pass) {
	pkgPath := strings.TrimSuffix(pass.Pkg.Path, "_test")
	verifyScope := false
	for _, suffix := range nonDetPkgs {
		if pathHasSuffix(pkgPath, suffix) {
			verifyScope = true
			break
		}
	}
	recoveryScope := false
	for _, suffix := range recoveryPkgs {
		if pathHasSuffix(pkgPath, suffix) {
			recoveryScope = true
			break
		}
	}
	if !verifyScope && !recoveryScope {
		return
	}
	seedName := verifyName
	pathKind := "signature verification"
	if recoveryScope {
		seedName = recoveryName
		pathKind = "crash recovery"
	}

	// (a) math/rand has no business in a verification package at all.
	if verifyScope {
		for _, f := range pass.Pkg.Files {
			if f.Test {
				continue
			}
			for _, imp := range f.AST.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if path == "math/rand" || path == "math/rand/v2" {
					pass.Reportf(imp.Pos(), "%s imported in verification package %s; use crypto/rand or inject the source",
						path, pass.Pkg.Path)
				}
			}
		}
	}

	// (b) build the intra-package call graph and the per-function list of
	// nondeterministic call sites.
	type fnInfo struct {
		decl    *ast.FuncDecl
		callees []string
		banned  []*ast.CallExpr
		labels  []string // rendered callee names, parallel to banned
	}
	fns := map[string]*fnInfo{}
	var seeds []string
	for _, f := range pass.Pkg.Files {
		if f.Test {
			continue
		}
		file := f.AST
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := funcKey(fd)
			info := &fnInfo{decl: fd}
			fns[key] = info
			if seedName.MatchString(fd.Name.Name) {
				seeds = append(seeds, key)
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee, ok := pass.CalleeOf(file, call)
				if !ok {
					return true
				}
				if isNonDetCallee(callee) {
					info.banned = append(info.banned, call)
					info.labels = append(info.labels, callee.String())
				} else if callee.PkgPath == pass.Pkg.Path ||
					callee.PkgPath == strings.TrimSuffix(pass.Pkg.Path, "_test") {
					info.callees = append(info.callees, calleeKey(callee))
				}
				return true
			})
		}
	}

	// BFS from the verification seeds, keeping one sample path per
	// function for the report.
	parent := map[string]string{}
	queue := append([]string(nil), seeds...)
	reached := map[string]bool{}
	for _, s := range seeds {
		reached[s] = true
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		info := fns[cur]
		if info == nil {
			continue
		}
		for _, next := range info.callees {
			if !reached[next] && fns[next] != nil {
				reached[next] = true
				parent[next] = cur
				queue = append(queue, next)
			}
		}
	}

	for key, info := range fns {
		if !reached[key] {
			continue
		}
		for i, call := range info.banned {
			pass.Reportf(call.Pos(), "%s makes %s irreproducible (path: %s)",
				info.labels[i], pathKind, samplePath(parent, key))
		}
	}
}

// isNonDetCallee matches the nondeterministic primitives.
func isNonDetCallee(c Callee) bool {
	switch c.PkgPath {
	case "time":
		return c.Name == "Now" || c.Name == "Since" || c.Name == "Until"
	case "math/rand", "math/rand/v2":
		return true
	}
	return false
}

func funcKey(fd *ast.FuncDecl) string {
	recv := ""
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		recv = recvTypeName(fd.Recv.List[0].Type)
	}
	return recv + "." + fd.Name.Name
}

func calleeKey(c Callee) string {
	return c.Recv + "." + c.Name
}

func recvTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(e.X)
	case *ast.IndexListExpr:
		return recvTypeName(e.X)
	}
	return ""
}

// samplePath renders the BFS chain seed → … → fn.
func samplePath(parent map[string]string, key string) string {
	var chain []string
	for {
		chain = append([]string{strings.TrimPrefix(key, ".")}, chain...)
		prev, ok := parent[key]
		if !ok {
			break
		}
		key = prev
	}
	return strings.Join(chain, " → ")
}
