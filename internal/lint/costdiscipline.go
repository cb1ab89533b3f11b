package lint

import (
	"go/ast"
	"go/types"
)

// CostDiscipline keeps the cost model in one place: every simulated cycle
// is either executed (a handler's instructions, a cache model's answer)
// or named. PAPER.md §1 says only the cost-model constants are
// calibrated, so a charge written as a bare number is a cost nobody can
// find, calibrate or question.
//
// The analyzer flags a call to a method named Charge or Compute whose one
// parameter is a sim.Time when the argument is built only from literals:
// Charge(12), Compute(sim.Time(2)), Compute(4*10). A named constant (whose
// comment says where its value comes from: a measurement or
// "uncalibrated"), a mach.Profile field or any computed value passes.
// internal/mach, which defines the calibrated profile and the cache model,
// is out of scope.
var CostDiscipline = &Analyzer{
	Name: "costdiscipline",
	Doc: "no bare-literal cycle charge: the argument of a Charge/Compute(sim.Time) " +
		"call is a named constant, a profile field or a computed value",
	Scope: func(p string) bool { return !pathIn(p, "ashs/internal/mach") },
	Run:   runCostDiscipline,
}

func runCostDiscipline(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 || !isCycleCharge(pass.Info, call) {
				return true
			}
			if arg := call.Args[0]; literalOnly(pass.Info, arg) {
				pass.Reportf(arg.Pos(),
					"bare literal %s charged; name it as a constant whose comment says where its value comes from",
					types.ExprString(arg))
			}
			return true
		})
	}
	return nil
}

// isCycleCharge reports whether call is a method call to Charge or Compute
// whose only parameter is a sim.Time.
func isCycleCharge(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Charge" && sel.Sel.Name != "Compute") {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 1 {
		return false
	}
	named, ok := sig.Params().At(0).Type().(*types.Named)
	return ok && named.Obj().Name() == "Time" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "ashs/internal/sim"
}

// literalOnly reports whether expr is built only from literals: every
// name in it, qualified or not, is a type (the target of a conversion),
// so it names no constant, variable, field or function.
func literalOnly(info *types.Info, expr ast.Expr) bool {
	only := true
	ast.Inspect(expr, func(n ast.Node) bool {
		var id *ast.Ident
		switch n := n.(type) {
		case *ast.Ident:
			id = n
		case *ast.SelectorExpr:
			id = n.Sel
		default:
			return only
		}
		if _, isType := info.Uses[id].(*types.TypeName); !isType {
			only = false
		}
		return false
	})
	return only
}
