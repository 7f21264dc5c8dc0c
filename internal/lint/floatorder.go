package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// floatOrderInScope bounds FloatOrder to the simulation packages:
// everything under internal/ except the analyzer itself. These are the
// packages whose floats end up in canonical result bytes, where a
// reassociated sum is a determinism bug, not a rounding footnote.
// Testdata fixtures and module-less scratch packages are always in scope,
// mirroring inScope.
func floatOrderInScope(pkg *Package) bool {
	if !pkg.InModule || strings.Contains(pkg.Rel, "testdata") {
		return true
	}
	if pkg.Rel == "internal/lint" || strings.HasPrefix(pkg.Rel, "internal/lint/") {
		return false
	}
	return strings.HasPrefix(pkg.Rel, "internal/")
}

// FloatOrder flags floating-point accumulation whose grouping depends on a
// nondeterministic iteration order. Float addition is not associative:
// summing the same values in a different order perturbs the last bits, and
// the framework's byte-identical canonical results turn that perturbation
// into a reproducibility failure. Two orders are nondeterministic by
// construction:
//
//   - range over a map: Go randomizes iteration order per run, so
//     total += v inside the loop sums in a different order every time;
//   - range over a channel: values arrive in worker completion order, so
//     merging per-worker float partials as they arrive groups the sum by
//     scheduler timing. Collect partials into an indexed slice and fold in
//     ascending index order instead.
//
// Integer accumulation is exempt everywhere: it is associative and
// commutative, which is exactly why maporder sanctions it too.
type FloatOrder struct{}

func (FloatOrder) Name() string { return "floatorder" }

func (FloatOrder) Doc() string {
	return "forbid float accumulation in map/channel iteration order; fold per-worker partials in index order"
}

func (FloatOrder) Check(f *File) []Diagnostic {
	if !floatOrderInScope(f.Pkg) {
		return nil
	}
	var diags []Diagnostic
	for _, body := range functionBodies(f.AST) {
		inspectShallow(body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			var source string
			switch {
			case f.rangeOverMap(rs):
				source = "map iteration order is randomized per run"
			case f.rangeOverChan(rs):
				source = "channel receive order follows worker completion"
			default:
				return true
			}
			diags = append(diags, f.checkFloatAccum(rs, source)...)
			return true
		})
	}
	return diags
}

// accumOps are the compound assignment operators that fold the LHS into
// itself, making iteration order part of the result.
var accumOps = map[token.Token]bool{
	token.ADD_ASSIGN: true,
	token.SUB_ASSIGN: true,
	token.MUL_ASSIGN: true,
	token.QUO_ASSIGN: true,
}

// checkFloatAccum reports float accumulations inside rs's body targeting
// state declared outside the loop.
func (f *File) checkFloatAccum(rs *ast.RangeStmt, source string) []Diagnostic {
	var diags []Diagnostic
	inspectShallow(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch {
		case accumOps[as.Tok]:
			for _, lhs := range as.Lhs {
				if f.floatAccumTarget(rs, lhs) {
					diags = append(diags, f.diag(as, "floatorder",
						"float accumulation into %s inside this range: %s, and float addition is not associative — collect into an indexed slice and fold in ascending order", types.ExprString(lhs), source))
				}
			}
		case as.Tok == token.ASSIGN && len(as.Lhs) == len(as.Rhs):
			for i, lhs := range as.Lhs {
				if f.floatAccumTarget(rs, lhs) && selfReferencing(lhs, as.Rhs[i]) {
					diags = append(diags, f.diag(as, "floatorder",
						"float accumulation into %s inside this range: %s, and float addition is not associative — collect into an indexed slice and fold in ascending order", types.ExprString(lhs), source))
				}
			}
		}
		return true
	})
	return diags
}

// floatAccumTarget reports whether lhs is a float-typed target declared
// outside the range statement.
func (f *File) floatAccumTarget(rs *ast.RangeStmt, lhs ast.Expr) bool {
	if !f.isFloat(lhs) {
		return false
	}
	id := baseIdent(lhs)
	if id == nil {
		return true // write escapes through an unrootable chain
	}
	return f.declaredOutside(id, rs)
}

// selfReferencing reports whether rhs is an arithmetic expression with lhs
// as an operand — the x = x + v spelling of accumulation.
func selfReferencing(lhs, rhs ast.Expr) bool {
	bin, ok := ast.Unparen(rhs).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	target := types.ExprString(lhs)
	found := false
	ast.Inspect(bin, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && types.ExprString(e) == target {
			found = true
			return false
		}
		return !found
	})
	return found
}
