package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ObsGuard enforces the zero-cost-disabled contract of the observability
// plane (internal/obs): a nil *obs.Plane must cost one pointer test and
// zero allocations per site.
//
// The emission methods (Span, Instant, Inc) are nil-safe,
// so a call with constant arguments is free when disabled. What breaks
// the contract is building a dynamic argument — a string concatenation
// or a formatting call — *before* the nil test inside the method runs:
// the allocation happens whether or not the plane exists. The analyzer
// therefore requires every emission call with an allocating argument to
// sit behind the established guard idiom:
//
//	if o := k.Obs; o.Enabled() { o.Span(..., "x "+name, ...) }
//
// (or an equivalent `!= nil` test / `== nil` early return on the same
// receiver). Direct access to the Metrics field is flagged the same way
// regardless of arguments: unlike the emission methods it is not
// nil-safe, so an unguarded p.Metrics dereference panics on a disabled
// plane.
var ObsGuard = &Analyzer{
	Name: "obsguard",
	Doc: "require the Enabled()/nil-check guard idiom around obs-plane " +
		"emissions that allocate their arguments (and around Metrics access), " +
		"preserving the nil-plane-is-zero-cost contract",
	Scope: func(p string) bool {
		return pathIn(p, "ashs") && !pathIn(p, "ashs/internal/obs")
	},
	Run: runObsGuard,
}

const obsPkgPath = "ashs/internal/obs"

var obsEmitMethods = map[string]bool{
	"Span": true, "Instant": true, "Inc": true,
}

func runObsGuard(pass *Pass) error {
	for _, f := range pass.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				name, recv, ok := methodOn(pass.Info, n, obsPkgPath, "Plane")
				if !ok || !obsEmitMethods[name] {
					return true
				}
				var alloc ast.Expr
				for _, arg := range n.Args {
					if allocatingStringArg(pass.Info, arg) {
						alloc = arg
						break
					}
				}
				if alloc == nil {
					return true
				}
				if !planeGuarded(pass, recv, n, stack) {
					pass.Reportf(n.Pos(),
						"obs %s with allocating argument %s outside an Enabled()/nil guard on %s; "+
							"a disabled (nil) plane still pays the allocation — wrap in `if o := %s; o.Enabled() { ... }`",
						name, types.ExprString(alloc), types.ExprString(recv), types.ExprString(recv))
				}
			case *ast.SelectorExpr:
				// p.Metrics on a possibly-nil plane: not nil-safe.
				if n.Sel.Name != "Metrics" {
					return true
				}
				tv, ok := pass.Info.Types[n.X]
				if !ok {
					return true
				}
				named := namedOf(tv.Type)
				if named == nil || named.Obj().Name() != "Plane" ||
					named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != obsPkgPath {
					return true
				}
				if _, isPtr := tv.Type.(*types.Pointer); !isPtr {
					return true
				}
				if !planeGuarded(pass, n.X, n, stack) {
					pass.Reportf(n.Pos(),
						"unguarded Metrics access on possibly-nil *obs.Plane %s; "+
							"test %s.Enabled() (or != nil) first", types.ExprString(n.X), types.ExprString(n.X))
				}
			}
			return true
		})
	}
	return nil
}

// allocatingStringArg reports whether arg is a non-constant string
// expression whose evaluation allocates: a concatenation or any function
// call (fmt.Sprintf, strconv.Itoa, ...). A bare variable or field read
// (k.Name) is not allocating; a constant concatenation folds at compile
// time.
func allocatingStringArg(info *types.Info, arg ast.Expr) bool {
	tv, ok := info.Types[arg]
	if !ok || tv.Value != nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsString == 0 {
		return false
	}
	allocating := false
	ast.Inspect(arg, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				allocating = true
			}
		case *ast.CallExpr:
			allocating = true
		}
		return !allocating
	})
	return allocating
}

// planeGuarded reports whether node sits behind a guard on the plane
// expression recv: an enclosing `if <recv>.Enabled()` / `if <recv> !=
// nil` (then-branch), or a preceding `if <recv> == nil { return }` in an
// enclosing block. Matching is textual on the receiver chain, which is
// exactly how the idiom is written throughout the tree.
func planeGuarded(pass *Pass, recv ast.Expr, node ast.Node, stack []ast.Node) bool {
	want := types.ExprString(ast.Unparen(recv))
	for i := len(stack) - 1; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.IfStmt:
			// Only the then-branch is protected.
			if within(node, s.Body) && guardCond(s.Cond, want) {
				return true
			}
		case *ast.BlockStmt:
			// `if recv == nil { return }` earlier in this block.
			for _, st := range s.List {
				if st.End() >= node.Pos() {
					break
				}
				ifs, ok := st.(*ast.IfStmt)
				if !ok || ifs.Init != nil {
					continue
				}
				if nilEq(ifs.Cond, want) && endsInReturn(ifs.Body) {
					return true
				}
			}
		case *ast.FuncDecl, *ast.FuncLit:
			// Guards don't cross function boundaries.
			return false
		}
	}
	return false
}

func within(n ast.Node, outer ast.Node) bool {
	return outer != nil && outer.Pos() <= n.Pos() && n.End() <= outer.End()
}

// guardCond matches `want.Enabled()`, `want != nil` or `nil != want`,
// possibly as a conjunct of &&.
func guardCond(cond ast.Expr, want string) bool {
	switch c := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		if c.Op == token.LAND {
			return guardCond(c.X, want) || guardCond(c.Y, want)
		}
		if c.Op == token.NEQ {
			return (isNilIdent(c.X) && types.ExprString(ast.Unparen(c.Y)) == want) ||
				(isNilIdent(c.Y) && types.ExprString(ast.Unparen(c.X)) == want)
		}
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok &&
			sel.Sel.Name == "Enabled" && types.ExprString(ast.Unparen(sel.X)) == want {
			return true
		}
	}
	return false
}

// nilEq matches `want == nil` / `nil == want`.
func nilEq(cond ast.Expr, want string) bool {
	c, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || c.Op != token.EQL {
		return false
	}
	return (isNilIdent(c.X) && types.ExprString(ast.Unparen(c.Y)) == want) ||
		(isNilIdent(c.Y) && types.ExprString(ast.Unparen(c.X)) == want)
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// endsInReturn reports whether a block's last statement is a return or a
// panic call (an early exit that makes the code after it nil-free).
func endsInReturn(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
