package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BufDiscipline enforces the buffer-lease ownership contract around
// netdev.PacketBuf (the zero-alloc hot path's currency):
//
//  1. no use after Release — once a function calls pkt.Release(), the
//     reference is gone; touching pkt afterwards (a field, a method, a
//     second Release) races the pool's recycling of the buffer. The
//     check is branch-aware: a Release inside an early-return branch
//     does not poison the fall-through path, but a Release in a branch
//     that falls through makes every later use a maybe-released use.
//  2. no leaked lease — a Lease/LeaseData result bound to a local must
//     be discharged somewhere in the same function: Released, handed to
//     a call that consumes it (Transmit, Redeliver, any helper taking
//     the buffer), stored into a longer-lived structure, or returned.
//     A lease whose result is never discharged — or discarded outright —
//     pins a pool buffer forever. (This is the conservative
//     function-local property; the pool-accounting tests catch dynamic
//     leaks the analyzer cannot see.)
//
// Types are matched by name (PacketBuf, BufPool, Switch), so the golden
// testdata's miniatures exercise the same code paths as the real
// netdev package; ep.Release(frame)-style methods on other types take
// an argument and do not match.
var BufDiscipline = &Analyzer{
	Name: "bufdiscipline",
	Doc: "PacketBuf lease contract: never touch a buffer after Release, " +
		"and every Lease/LeaseData result must reach a Release, an " +
		"ownership-transferring call, a store, or a return",
	Scope: scopeAny(
		"ashs/internal/netdev",
		"ashs/internal/aegis",
		"ashs/internal/flyweight",
		"ashs/internal/fault",
		"ashs/internal/proto",
		"ashs/internal/bench",
	),
	Run: runBufDiscipline,
}

func runBufDiscipline(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkUseAfterRelease(pass, fd)
			checkLeakedLease(pass, fd)
		}
	}
	return nil
}

// isBufRelease reports whether call is pkt.Release() on a *PacketBuf,
// returning the receiver identifier's object when the receiver is a
// plain local. The zero-argument requirement keeps endpoint-style
// Release(frame) methods on other types from matching even before the
// receiver type is consulted.
func isBufRelease(pass *Pass, call *ast.CallExpr) (types.Object, bool) {
	if len(call.Args) != 0 {
		return nil, false
	}
	name, recv, ok := methodOn(pass.Info, call, "", "PacketBuf")
	if !ok || name != "Release" {
		return nil, false
	}
	id, ok := ast.Unparen(recv).(*ast.Ident)
	if !ok {
		return nil, true // released through a field/index path; tracked as a release event, no object
	}
	return pass.Info.Uses[id], true
}

// isLeaseCall reports whether call mints a fresh PacketBuf reference:
// BufPool.Lease or Switch.LeaseData.
func isLeaseCall(pass *Pass, call *ast.CallExpr) bool {
	if name, _, ok := methodOn(pass.Info, call, "", "BufPool"); ok {
		return name == "Lease"
	}
	if name, _, ok := methodOn(pass.Info, call, "", "Switch"); ok {
		return name == "LeaseData"
	}
	return false
}

// checkUseAfterRelease walks fd's body in source order tracking which
// PacketBuf locals have been Released, branch by branch. A branch that
// terminates (return/panic/branch statement) keeps its releases to
// itself — the early-error idiom `if bad { pkt.Release(); return err }`
// leaves the fall-through path clean. A branch that falls through
// merges its releases into the outer set, so a conditionally released
// buffer is flagged at any later use.
func checkUseAfterRelease(pass *Pass, fd *ast.FuncDecl) {
	released := map[types.Object]bool{}

	// flagUses reports identifiers in n that resolve to a released
	// buffer.
	var flagUses func(n ast.Node)
	flagUses = func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(x ast.Node) bool {
			id, ok := x.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.Info.Uses[id]
			if obj != nil && released[obj] {
				pass.Reportf(id.Pos(),
					"%s used after Release; the pool may already have recycled the buffer — "+
						"copy what you need before Release", id.Name)
				delete(released, obj) // one report per release, not per use
			}
			return true
		})
	}

	// handleAssign clears released state for plain-ident targets (a
	// re-lease like pkt = sw.LeaseData(d) makes the name valid again) after
	// flagging uses on the RHS and in any non-ident LHS (pkt.Dst = 1 is
	// a use of pkt).
	handleAssign := func(as *ast.AssignStmt) {
		for _, rhs := range as.Rhs {
			flagUses(rhs)
		}
		for _, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil {
					delete(released, obj)
				}
				if obj := pass.Info.Defs[id]; obj != nil {
					delete(released, obj)
				}
				continue
			}
			flagUses(lhs)
		}
	}

	// terminates reports whether a statement list cannot fall through:
	// its last statement returns, branches, or panics.
	terminates := func(list []ast.Stmt) bool {
		if len(list) == 0 {
			return false
		}
		switch s := list[len(list)-1].(type) {
		case *ast.ReturnStmt, *ast.BranchStmt:
			return true
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
					return true
				}
			}
		}
		return false
	}

	snapshot := func() map[types.Object]bool {
		cp := make(map[types.Object]bool, len(released))
		for k, v := range released {
			cp[k] = v
		}
		return cp
	}

	var walkStmts func(list []ast.Stmt)
	var walkStmt func(s ast.Stmt)

	// walkBranch runs a nested statement list against a copy of the
	// current released set, merging new releases back only when the
	// branch can fall through to the code after it.
	walkBranch := func(list []ast.Stmt) {
		outer := released
		released = snapshot()
		walkStmts(list)
		if !terminates(list) {
			for k, v := range released {
				outer[k] = outer[k] || v
			}
		}
		released = outer
	}

	walkStmt = func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
				if obj, isRel := isBufRelease(pass, call); isRel {
					// A second Release of the same buffer is a use of a
					// released buffer; flag it before recording.
					flagUses(s)
					if obj != nil {
						released[obj] = true
					}
					return
				}
			}
			flagUses(s)
		case *ast.AssignStmt:
			handleAssign(s)
		case *ast.BlockStmt:
			walkStmts(s.List)
		case *ast.IfStmt:
			if s.Init != nil {
				walkStmt(s.Init)
			}
			flagUses(s.Cond)
			walkBranch(s.Body.List)
			if s.Else != nil {
				switch e := s.Else.(type) {
				case *ast.BlockStmt:
					walkBranch(e.List)
				default:
					walkStmt(e)
				}
			}
		case *ast.ForStmt:
			if s.Init != nil {
				walkStmt(s.Init)
			}
			flagUses(s.Cond)
			walkBranch(s.Body.List)
		case *ast.RangeStmt:
			flagUses(s.X)
			walkBranch(s.Body.List)
		case *ast.SwitchStmt:
			if s.Init != nil {
				walkStmt(s.Init)
			}
			flagUses(s.Tag)
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkBranch(cc.Body)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkBranch(cc.Body)
				}
			}
		default:
			flagUses(s)
		}
	}
	walkStmts = func(list []ast.Stmt) {
		for _, s := range list {
			walkStmt(s)
		}
	}
	walkStmts(fd.Body.List)
}

// checkLeakedLease finds Lease/LeaseData results that never leave the
// function: not Released, not passed to any call, not stored, not
// returned. Results consumed in place (return sw.LeaseData(d), f(sw.LeaseData(d)))
// escape by construction and are skipped; a bare lease statement whose
// result is dropped is reported outright.
func checkLeakedLease(pass *Pass, fd *ast.FuncDecl) {
	type lease struct {
		obj  types.Object
		call *ast.CallExpr
		name string
	}
	var leases []lease

	walkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isLeaseCall(pass, call) {
			return true
		}
		// Find the nearest enclosing non-paren node to classify how the
		// result is consumed.
		var parent ast.Node
		for i := len(stack) - 1; i >= 0; i-- {
			if _, isParen := stack[i].(*ast.ParenExpr); !isParen {
				parent = stack[i]
				break
			}
		}
		switch p := parent.(type) {
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(),
				"lease result dropped; the pool buffer can never be Released — bind it or don't lease")
		case *ast.AssignStmt:
			for i, rhs := range p.Rhs {
				if ast.Unparen(rhs) != call || i >= len(p.Lhs) {
					continue
				}
				id, ok := ast.Unparen(p.Lhs[i]).(*ast.Ident)
				if !ok {
					continue // stored through a field/index: escapes
				}
				if id.Name == "_" {
					pass.Reportf(call.Pos(),
						"lease result dropped; the pool buffer can never be Released — bind it or don't lease")
					continue
				}
				obj := pass.Info.Defs[id]
				if obj == nil {
					obj = pass.Info.Uses[id]
				}
				if obj != nil {
					leases = append(leases, lease{obj: obj, call: call, name: id.Name})
				}
			}
		default:
			// return sw.LeaseData(d), f(sw.LeaseData(d)), T{pkt: sw.LeaseData(d)}:
			// the reference escapes where it is minted.
		}
		return true
	})
	if len(leases) == 0 {
		return
	}

	// discharged records objects that, after their lease, reach a
	// Release, appear as a call argument (ownership transfer), appear in
	// a composite literal or on the right of an assignment (store), or
	// appear in a return statement.
	discharged := map[types.Object]bool{}
	tracked := map[types.Object]token.Pos{}
	for _, l := range leases {
		tracked[l.obj] = l.call.Pos()
	}
	// markDirect discharges e only when it IS the tracked identifier
	// (optionally &-addressed or parenthesized) — pkt handed somewhere
	// whole. A mere read through it (pkt.Len(), pkt.Dst) is not a
	// handoff and must not satisfy the leak check.
	markDirect := func(e ast.Expr) {
		e = ast.Unparen(e)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = ast.Unparen(u.X)
		}
		id, ok := e.(*ast.Ident)
		if !ok {
			return
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			return
		}
		if pos, isTracked := tracked[obj]; isTracked && id.Pos() > pos {
			discharged[obj] = true
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if obj, isRel := isBufRelease(pass, n); isRel && obj != nil {
				if pos, isTracked := tracked[obj]; isTracked && n.Pos() > pos {
					discharged[obj] = true
				}
			}
			if !isLeaseCall(pass, n) { // the lease's own arguments (data slice) are not a handoff
				for _, arg := range n.Args {
					markDirect(arg)
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				markDirect(r)
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					markDirect(kv.Value)
					continue
				}
				markDirect(el)
			}
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				markDirect(rhs)
			}
		case *ast.DeferStmt:
			if obj, isRel := isBufRelease(pass, n.Call); isRel && obj != nil {
				discharged[obj] = true
			}
		}
		return true
	})

	for _, l := range leases {
		if !discharged[l.obj] {
			pass.Reportf(l.call.Pos(),
				"lease bound to %s never reaches Release, an ownership-transferring call, "+
					"a store, or a return; the pool buffer leaks", l.name)
		}
	}
}
