package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// goroutineJoinScope is the default set of package prefixes GoroutineJoin
// polices: the simulation core, the campaign scheduler, the ML kernels,
// and the command binaries that drive them. Elsewhere a stray goroutine is
// a style question; here an unjoined worker outlives the run it belongs
// to, races tick state, and — worst — keeps consuming a forked RNG after
// the result has been serialized.
var goroutineJoinScope = []string{"internal/core", "internal/campaign", "internal/ml", "cmd"}

// GoroutineJoin requires every goroutine spawned in the policed packages
// to have a provable join in its spawning function, and its closure to be
// free of the two capture hazards that undermine deterministic fan-out:
//
//   - join: the closure must signal completion in a way the spawner
//     observably waits on — a sync.WaitGroup Done matched by a Wait on the
//     same receiver, or a send/close on a channel the spawning function
//     receives from. A goroutine with neither is fire-and-forget: it can
//     still be running when the run's result is read.
//   - loop variables: the closure must not capture the enclosing loop's
//     iteration variables; pass them as arguments so each worker's inputs
//     are pinned at spawn time.
//   - captured writes: the closure must not write state captured from the
//     enclosing scope unless the write is per-slot (indexed by a
//     goroutine-local variable, the disjoint-shard pattern) or the closure
//     is mutex-guarded (calls Lock/RLock).
//
// The analysis is function-local and evidence-based: it proves joins it
// can see and reports the rest. Intentionally detached goroutines carry a
// //roadlint:allow goroutinejoin comment with the justification.
type GoroutineJoin struct{}

func (GoroutineJoin) Name() string { return "goroutinejoin" }

func (GoroutineJoin) Doc() string {
	return "require a provable join (WaitGroup/channel) for goroutines in core/campaign/ml/cmd and forbid unsynchronized captures"
}

func (GoroutineJoin) Check(f *File) []Diagnostic {
	if !inScope(f.Pkg, goroutineJoinScope) {
		return nil
	}
	var diags []Diagnostic
	for _, body := range functionBodies(f.AST) {
		inspectShallow(body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			diags = append(diags, f.checkGoroutine(body, g)...)
			return true
		})
	}
	return diags
}

// inScope reports whether pkg falls under one of the policed prefixes.
// Testdata fixtures are always in scope: they are only ever loaded by
// explicit request, and the scoping exists to bound tree-wide runs, not
// to blind the rules.
func inScope(pkg *Package, prefixes []string) bool {
	if strings.Contains(pkg.Rel, "testdata") {
		return true
	}
	for _, p := range prefixes {
		if pkg.Rel == p || strings.HasPrefix(pkg.Rel, p+"/") {
			return true
		}
	}
	return false
}

// checkGoroutine applies the join and capture checks to one go statement
// spawned directly in body.
func (f *File) checkGoroutine(body *ast.BlockStmt, g *ast.GoStmt) []Diagnostic {
	var diags []Diagnostic
	lit := goroutineLit(g)
	if lit == nil {
		diags = append(diags, f.diag(g, "goroutinejoin",
			"goroutine %s has no join evidence in the spawning function; wrap it in a closure that signals a WaitGroup or channel the spawner waits on", types.ExprString(g.Call.Fun)))
		return diags
	}
	if !f.goroutineJoined(body, lit) {
		diags = append(diags, f.diag(g, "goroutinejoin",
			"goroutine has no provable join in the spawning function (no WaitGroup Done/Wait pair, no send or close on a channel the spawner receives from); an unjoined worker outlives the run"))
	}
	diags = append(diags, f.checkLoopCapture(body, g, lit)...)
	diags = append(diags, f.checkCapturedWrites(lit)...)
	return diags
}

// goroutineJoined looks for join evidence connecting lit to its spawning
// body: a WaitGroup receiver with Done inside and Wait outside, or a
// channel sent/closed inside and received outside. For WaitGroups held in
// struct fields (a Done receiver containing a selector, e.g. s.launches),
// the Wait may legitimately live in a sibling method — shutdown drains a
// tracked worker set — so field-rooted receivers accept Wait evidence from
// anywhere in the file.
func (f *File) goroutineJoined(body *ast.BlockStmt, lit *ast.FuncLit) bool {
	done := callsSelector(lit, "Done")
	if intersects(done, callsSelector(body, "Wait")) {
		return true
	}
	var fieldDone []string
	for _, recv := range done {
		if strings.Contains(recv, ".") {
			fieldDone = append(fieldDone, recv)
		}
	}
	if len(fieldDone) > 0 && intersects(fieldDone, callsSelector(f.AST, "Wait")) {
		return true
	}
	sent := make(map[string]bool)
	ast.Inspect(lit, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.SendStmt:
			sent[types.ExprString(s.Chan)] = true
		case *ast.CallExpr:
			if id, ok := s.Fun.(*ast.Ident); ok && id.Name == "close" && len(s.Args) == 1 {
				sent[types.ExprString(s.Args[0])] = true
			}
		}
		return true
	})
	if len(sent) == 0 {
		return false
	}
	joined := false
	ast.Inspect(body, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch r := n.(type) {
		case *ast.UnaryExpr:
			if r.Op.String() == "<-" && sent[types.ExprString(r.X)] {
				joined = true
			}
		case *ast.RangeStmt:
			if sent[types.ExprString(r.X)] {
				joined = true
			}
		}
		return true
	})
	return joined
}

// intersects reports whether two receiver-expression lists share an entry.
func intersects(a, b []string) bool {
	set := make(map[string]bool, len(a))
	for _, s := range a {
		set[s] = true
	}
	for _, s := range b {
		if set[s] {
			return true
		}
	}
	return false
}

// checkLoopCapture flags closure references to iteration variables of the
// loops enclosing the go statement.
func (f *File) checkLoopCapture(body *ast.BlockStmt, g *ast.GoStmt, lit *ast.FuncLit) []Diagnostic {
	var diags []Diagnostic
	for _, loop := range enclosingLoops(body, g) {
		for _, obj := range f.loopVarObjs(loop) {
			if f.usesObject(lit, obj) {
				diags = append(diags, f.diag(g, "goroutinejoin",
					"goroutine closure captures loop variable %s; pass it as an argument so each worker's inputs are pinned at spawn time", obj.Name()))
			}
		}
	}
	return diags
}

// checkCapturedWrites flags writes to captured state inside the goroutine
// closure, exempting per-slot indexed writes and mutex-guarded closures.
func (f *File) checkCapturedWrites(lit *ast.FuncLit) []Diagnostic {
	if len(callsSelector(lit, "Lock", "RLock")) > 0 {
		return nil // mutex-guarded closure: writes are synchronized
	}
	var diags []Diagnostic
	report := func(n ast.Node, lhs ast.Expr) {
		id, captured := f.capturedBase(lhs, lit)
		if !captured || f.indexLocalTo(lhs, lit) {
			return
		}
		name := types.ExprString(lhs)
		if id != nil {
			name = id.Name
		}
		diags = append(diags, f.diag(n, "goroutinejoin",
			"goroutine writes captured %s without synchronization; write to a slot indexed by a goroutine-local variable or guard the closure with a mutex", name))
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				report(s, lhs)
			}
		case *ast.IncDecStmt:
			report(s, s.X)
		}
		return true
	})
	return diags
}
