package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// slice-origin classes for hotalloc's append rule.
const (
	originDerived = iota // param, field, deref, index, call result: capacity is owned elsewhere
	originNil            // declared nil locally: growing it allocates every call
	originAlloc          // make/composite locally: the allocation is reported at its own site
)

// checkHotAlloc enforces the zero-steady-state-allocation contract on every
// function marked //ags:hotpath, in any package. It flags the constructs
// that allocate per call:
//
//   - make and new, UNLESS inside the body of an `if cap(buf) < n` guard —
//     the repo's lazy-grow idiom, which allocates only until buffers reach
//     their high-water mark and is exactly what
//     TestRenderContextAllocationFree measures as free;
//   - slice and map composite literals (struct values and arrays live on
//     the stack and are fine);
//   - &T{...} — conservatively treated as escaping;
//   - function literals — a closure capture allocates;
//   - append that grows a local slice declared nil, which re-allocates its
//     backing array on every call. Appends into parameters, fields, or
//     slices derived from them (buf[:0], *scratch) reuse caller-owned
//     capacity and are the sanctioned pattern.
//
// The check is intraprocedural: calls out of the function are trusted (the
// callee is either annotated itself or deliberately out of contract).
func checkHotAlloc(p *pass) {
	for _, file := range p.pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpath(fd) {
				continue
			}
			analyzeHotFunc(p, fd)
		}
	}
}

func analyzeHotFunc(p *pass, fd *ast.FuncDecl) {
	info := p.pkg.Info
	guards := capGuardRanges(info, fd.Body)
	guarded := func(pos token.Pos) bool {
		for _, g := range guards {
			if g[0] <= pos && pos < g[1] {
				return true
			}
		}
		return false
	}
	origins := sliceOrigins(info, fd.Body)

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			p.reportAt(n.Pos(), CheckHotAlloc,
				"function literal allocates a closure on the hot path — hoist it or justify with //ags:allow(hotalloc, reason)")
			return false // the closure body is its own (cold) world
		case *ast.CallExpr:
			switch builtinName(info, n) {
			case "make":
				if !guarded(n.Pos()) {
					p.reportAt(n.Pos(), CheckHotAlloc,
						"make allocates on the hot path — reuse a context-owned buffer, or grow under an `if cap(buf) < n` guard so steady state is allocation-free")
				}
			case "new":
				if !guarded(n.Pos()) {
					p.reportAt(n.Pos(), CheckHotAlloc, "new allocates on the hot path")
				}
			case "append":
				if len(n.Args) > 0 {
					if id := rootIdent(n.Args[0]); id != nil {
						if o := info.Uses[id]; o != nil && origins[o] == originNil {
							p.reportAt(n.Pos(), CheckHotAlloc,
								"append grows "+id.Name+", a local slice that starts nil, re-allocating its backing array every call — append into a reused buffer instead")
						}
					}
				}
			}
		case *ast.CompositeLit:
			if t := info.Types[n].Type; t != nil && !guarded(n.Pos()) {
				switch t.Underlying().(type) {
				case *types.Slice:
					p.reportAt(n.Pos(), CheckHotAlloc, "slice literal allocates on the hot path")
				case *types.Map:
					p.reportAt(n.Pos(), CheckHotAlloc, "map literal allocates on the hot path")
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok && !guarded(n.Pos()) {
					p.reportAt(n.Pos(), CheckHotAlloc,
						"&composite-literal on the hot path is conservatively treated as a heap allocation")
				}
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// capGuardRanges returns the position ranges of if-bodies whose condition
// reads cap(...) — the lazy-grow idiom's amortized-allocation zones.
func capGuardRanges(info *types.Info, body *ast.BlockStmt) [][2]token.Pos {
	var ranges [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		usesCap := false
		ast.Inspect(ifs.Cond, func(c ast.Node) bool {
			if call, ok := c.(*ast.CallExpr); ok && builtinName(info, call) == "cap" {
				usesCap = true
			}
			return !usesCap
		})
		if usesCap {
			ranges = append(ranges, [2]token.Pos{ifs.Body.Pos(), ifs.Body.End()})
		}
		return true
	})
	return ranges
}

// sliceOrigins classifies every locally declared slice/map variable by where
// its backing storage comes from (see the origin* constants). Function
// literals are skipped — their locals are theirs.
func sliceOrigins(info *types.Info, body *ast.BlockStmt) map[types.Object]int {
	origins := make(map[types.Object]int)
	classify := func(id *ast.Ident, rhs ast.Expr) {
		o := info.Defs[id]
		if o == nil {
			return
		}
		switch u := o.Type().Underlying().(type) {
		case *types.Slice, *types.Map:
			_ = u
		default:
			return
		}
		if rhs == nil {
			origins[o] = originNil // var buf []T
			return
		}
		switch r := rhs.(type) {
		case *ast.CallExpr:
			if builtinName(info, r) == "make" {
				origins[o] = originAlloc
			} else {
				origins[o] = originDerived
			}
		case *ast.CompositeLit:
			origins[o] = originAlloc
		case *ast.Ident:
			if r.Name == "nil" {
				origins[o] = originNil
			} else {
				origins[o] = originDerived
			}
		default:
			origins[o] = originDerived
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						classify(id, n.Rhs[i])
					}
				}
			}
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var rhs ast.Expr
					if i < len(vs.Values) {
						rhs = vs.Values[i]
					}
					classify(name, rhs)
				}
			}
		}
		return true
	})
	return origins
}

// builtinName returns the predeclared builtin a call invokes, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := info.Uses[id].(*types.Builtin); ok {
		return id.Name
	}
	return ""
}

// rootIdent unwraps index/selector/star/paren chains to the base identifier:
// the variable whose contents the expression reads or mutates.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
