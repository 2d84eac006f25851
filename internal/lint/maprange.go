package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// checkMapRange flags every `range` over a map in a determinism-critical
// package except the one idiom that is order-insensitive by construction,
// collect-then-sort:
//
//	for k, v := range m {
//		if v >= 2 { // optional: no calls, no else, does not mention xs
//			xs = append(xs, k) // exactly the range key or the range value
//		}
//	}
//	sort.Strings(xs) // a sort.* / slices.Sort* of xs, later in the same function
//
// Go randomizes map iteration order per run, so any other loop either leaks
// that order into its result or is order-insensitive for a reason the reader
// has to be told (an integer count, a min-reduction over unique values,
// close-everything): those carry //ags:allow(maprange, reason). The check
// does not try to prove them.
func checkMapRange(p *pass) {
	for _, file := range p.pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				mapRangeWalk(p, fd.Body)
			}
		}
	}
}

// mapRangeWalk visits every map-range statement under body, the scope the
// sort has to follow the loop in. Function literals start a fresh scope: a
// sort inside a closure does not order a slice appended outside it.
func mapRangeWalk(p *pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			mapRangeWalk(p, n.Body)
			return false
		case *ast.RangeStmt:
			t := p.pkg.Info.Types[n.X].Type
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			reason := "the loop does more than append the range key or value to one slice"
			if slice := collectedSlice(p.pkg.Info, n); slice != nil {
				if sortedAfter(p.pkg.Info, body, n, slice) {
					return true
				}
				reason = "no sort of " + slice.Name() + " follows the loop in this function"
			}
			p.reportAt(n.Pos(), CheckMapRange, fmt.Sprintf(
				"range over map %s: %s (iteration order is randomized; collect then sort, or justify with //ags:allow(maprange, reason))",
				types.ExprString(n.X), reason))
		}
		return true
	})
}

// collectedSlice returns the slice variable a map-range loop collects into
// when its body is the admitted shape and nothing else: `xs = append(xs, e)`
// with e the range key or value, optionally as the only statement of an `if`
// with no init, no else, and a condition free of calls, closures and xs
// (`if len(xs) < n`, or `if xs == nil`, would admit an order-dependent
// subset that a later sort cannot repair). It returns nil for any other body.
func collectedSlice(info *types.Info, rs *ast.RangeStmt) types.Object {
	if len(rs.Body.List) != 1 {
		return nil
	}
	stmt := rs.Body.List[0]
	var cond ast.Expr
	if ifs, ok := stmt.(*ast.IfStmt); ok {
		if ifs.Init != nil || ifs.Else != nil || len(ifs.Body.List) != 1 {
			return nil
		}
		cond, stmt = ifs.Cond, ifs.Body.List[0]
	}
	as, ok := stmt.(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || builtinName(info, call) != "append" || len(call.Args) != 2 || call.Ellipsis.IsValid() {
		return nil
	}
	slice := identObj(info, as.Lhs[0])
	elem := identObj(info, call.Args[1])
	if slice == nil || identObj(info, call.Args[0]) != slice ||
		elem == nil || (elem != identObj(info, rs.Key) && elem != identObj(info, rs.Value)) {
		return nil
	}
	clean := true
	if cond != nil {
		ast.Inspect(cond, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr, *ast.FuncLit:
				clean = false
			case *ast.Ident:
				if info.Uses[n] == slice {
					clean = false
				}
			}
			return clean
		})
	}
	if !clean {
		return nil
	}
	return slice
}

// identObj resolves a bare identifier to its object, or nil for any other
// expression (including an absent range key or value).
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// sortFuncs are the standard-library calls that impose a total order on
// their first argument.
var sortFuncs = map[string]map[string]bool{
	"sort": {"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
		"Strings": true, "Ints": true, "Float64s": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// sortedAfter reports whether a sortFuncs call on slice (bare, or wrapped in
// a sort.Interface conversion like byFoo(xs)) appears after the range loop
// inside the enclosing function body.
func sortedAfter(info *types.Info, owner *ast.BlockStmt, rs *ast.RangeStmt, slice types.Object) bool {
	found := false
	ast.Inspect(owner, func(n ast.Node) bool {
		if _, closure := n.(*ast.FuncLit); closure || found {
			return false // a closure may never run; it is not "this function"
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || !sortFuncs[fn.Pkg().Path()][fn.Name()] {
			return true
		}
		arg := call.Args[0]
		if conv, ok := arg.(*ast.CallExpr); ok && len(conv.Args) == 1 && info.Types[conv.Fun].IsType() {
			arg = conv.Args[0]
		}
		found = identObj(info, arg) == slice
		return !found
	})
	return found
}
