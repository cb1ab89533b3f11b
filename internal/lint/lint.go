// Package lint is ashlint's analysis framework: a self-contained,
// dependency-free reimplementation of the go/analysis surface the repo's
// custom analyzers need.
//
// The paper's thesis is that untrusted code is checked *before* it runs —
// the DPF/ASH verifier rejects a handler statically instead of trusting
// it dynamically. internal/vcode/analysis applies that to downloaded
// VCODE; this package applies it to the Go codebase itself. The repo's
// headline guarantees (byte-identical output at any -parallel level,
// the packet-buffer lease contract, nil-obs-plane = zero cost, no alloc
// panics on the data path) are otherwise enforced only by golden tests
// that catch violations after the fact; each analyzer here turns one of
// them into a compile-time-style gate.
//
// Why not golang.org/x/tools/go/analysis: the module is intentionally
// dependency-free (go.mod has no requires), so the framework is built on
// go/ast + go/types alone. The shapes mirror go/analysis deliberately —
// an Analyzer with a Run(*Pass), positioned Diagnostics — so migrating
// onto the real framework later is mechanical.
//
// Suppressions: a finding can be silenced with
//
//	//lint:ignore ashlint/<name> <reason>
//
// on the offending line or the line above it. The reason is mandatory;
// an ignore directive without one is itself reported (as
// ashlint/ignore), so every suppression in the tree carries its
// justification.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// All is the ashlint suite, in stable reporting order.
var All = []*Analyzer{Determinism, ObsGuard, AllocDiscipline, BufDiscipline, CostDiscipline}

// An Analyzer describes one statically checked invariant.
type Analyzer struct {
	// Name is the short identifier; diagnostics are tagged
	// "ashlint/<Name>" and that tag is what ignore directives reference.
	Name string

	// Doc is a one-paragraph description of the invariant the analyzer
	// proves, shown by `ashlint -list`.
	Doc string

	// Scope reports whether the analyzer applies to the package with the
	// given import path. The driver consults Scope; test harnesses call
	// Run directly and bypass it. A nil Scope means every package.
	Scope func(pkgPath string) bool

	// Run inspects one package and reports findings through pass.Report.
	Run func(pass *Pass) error
}

// A Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File // parsed non-test files, with comments
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string // short analyzer name, without the ashlint/ prefix
	Message  string
}

// ignoreName is the pseudo-analyzer under which malformed ignore
// directives are reported. It cannot itself be ignored.
const ignoreName = "ignore"

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos      token.Pos
	analyzer string // bare name, "ashlint/" prefix stripped
	reason   string
}

const ignorePrefix = "//lint:ignore "

// parseIgnores extracts lint:ignore directives from a file, keyed by the
// line they apply to: the line the comment sits on covers both that line
// (trailing comment) and the next (comment on its own line).
func parseIgnores(fset *token.FileSet, f *ast.File) []ignoreDirective {
	var out []ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
			name, reason, _ := strings.Cut(rest, " ")
			name = strings.TrimPrefix(name, "ashlint/")
			out = append(out, ignoreDirective{
				pos:      c.Pos(),
				analyzer: name,
				reason:   strings.TrimSpace(reason),
			})
		}
	}
	return out
}

// Run applies analyzers to pkg (Scope is NOT consulted; the caller
// filters), collects diagnostics, applies ignore directives, and reports
// malformed directives. Diagnostics come back sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			report:   func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("ashlint/%s on %s: %w", a.Name, pkg.Path, err)
		}
	}

	// Index ignore directives by (file, line).
	type key struct {
		file string
		line int
	}
	suppress := map[key]map[string]bool{} // line -> analyzer set
	for _, f := range pkg.Files {
		for _, d := range parseIgnores(pkg.Fset, f) {
			p := pkg.Fset.Position(d.pos)
			if d.reason == "" || d.analyzer == "" || d.analyzer == ignoreName {
				diags = append(diags, Diagnostic{
					Pos:      d.pos,
					Analyzer: ignoreName,
					Message:  "lint:ignore directive requires a non-empty reason: //lint:ignore ashlint/<name> <reason>",
				})
				continue
			}
			for _, line := range []int{p.Line, p.Line + 1} {
				k := key{p.Filename, line}
				if suppress[k] == nil {
					suppress[k] = map[string]bool{}
				}
				suppress[k][d.analyzer] = true
			}
		}
	}

	kept := diags[:0]
	for _, d := range diags {
		p := pkg.Fset.Position(d.Pos)
		if d.Analyzer != ignoreName && suppress[key{p.Filename, p.Line}][d.Analyzer] {
			continue
		}
		kept = append(kept, d)
	}
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].Pos < kept[j].Pos })
	return kept, nil
}

// --------------------------------------------------------------------
// Shared AST/type helpers used by the analyzers.
// --------------------------------------------------------------------

// walkStack traverses root in source order, calling fn with each node and
// the stack of its ancestors (outermost first, not including n itself).
// Returning false from fn prunes the subtree.
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		keep := fn(n, stack)
		if keep {
			stack = append(stack, n)
		}
		return keep
	})
}

// pkgFunc resolves a call to a package-level function and returns its
// package path and name ("", "" if the callee is not one).
func pkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", ""
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", "" // method, not a package-level function
	}
	return fn.Pkg().Path(), fn.Name()
}

// methodOn reports the called method's name when call is a method call
// whose receiver's (pointer-stripped) named type is typeName declared in
// a package whose path matches pkgPath ("" matches any package).
func methodOn(info *types.Info, call *ast.CallExpr, pkgPath, typeName string) (name string, recv ast.Expr, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", nil, false
	}
	selection, isMethod := info.Selections[sel]
	if !isMethod || selection.Kind() != types.MethodVal {
		return "", nil, false
	}
	named := namedOf(selection.Recv())
	if named == nil || named.Obj().Name() != typeName {
		return "", nil, false
	}
	if pkgPath != "" && (named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != pkgPath) {
		return "", nil, false
	}
	return sel.Sel.Name, sel.X, true
}

// namedOf strips pointers and returns the named type beneath t, if any.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	if n == nil {
		if ptr, ok := t.(*types.Pointer); ok {
			n, _ = ptr.Elem().(*types.Named)
		}
	}
	return n
}

// isConst reports whether expr has a compile-time constant value.
func isConst(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	return ok && tv.Value != nil
}

// enclosingFuncDecl returns the innermost *ast.FuncDecl on the stack.
func enclosingFuncDecl(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// pathIn reports whether pkgPath is path or lies beneath it.
func pathIn(pkgPath, path string) bool {
	return pkgPath == path || strings.HasPrefix(pkgPath, path+"/")
}

// scopeAny builds a Scope func matching any of the given roots.
func scopeAny(roots ...string) func(string) bool {
	return func(p string) bool {
		for _, r := range roots {
			if pathIn(p, r) {
				return true
			}
		}
		return false
	}
}
