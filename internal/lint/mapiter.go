package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapIter flags range statements over maps whose bodies have an
// order-dependent effect: appending to an outer slice that is never sorted
// afterwards, writing output, sending on a channel, or feeding an
// order-sensitive sink such as the trace recorder or the event queue. Map
// iteration order is deliberately randomized by the runtime, so any of
// these silently breaks replayability — the classic leak once execution is
// parallelized. Collect the keys, sort them, and iterate the sorted keys
// (or sort the collected result before use).
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc:  "flag order-dependent effects inside map iteration without a sort",
	Run:  runMapIter,
}

// orderSinkMethods are method names that feed order-sensitive consumers:
// the simtime event queue (ScheduleCall/ScheduleCallPre/AfterCall/Every;
// same-instant events fire in scheduling order), the trace recorder (Add,
// Record), and queue-like structures.
var orderSinkMethods = map[string]bool{
	"Schedule":        true,
	"ScheduleCall":    true,
	"ScheduleCallPre": true,
	"After":           true,
	"AfterCall":       true,
	"Every":           true,
	"Emit":            true,
	"Push":            true,
	"Enqueue":         true,
	"Publish":         true,
	"Record":          true,
	"Add":             true,
}

func runMapIter(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch v := n.(type) {
			case *ast.FuncDecl:
				body = v.Body
			case *ast.FuncLit:
				body = v.Body
			default:
				return true
			}
			if body != nil {
				checkBodyMapRanges(pass, body)
			}
			return true
		})
	}
}

// checkBodyMapRanges inspects one function body (excluding nested function
// literals, which are checked on their own) for map-range statements.
func checkBodyMapRanges(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != nil {
			return false
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.Info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRange(pass, body, rs)
		return true
	})
}

func checkMapRange(pass *Pass, enclosing *ast.BlockStmt, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch v := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(v.Pos(), "channel send inside map iteration delivers in random order; sort the keys first")
		case *ast.AssignStmt:
			for i, rhs := range v.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) || i >= len(v.Lhs) {
					continue
				}
				dst, ok := v.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.ObjectOf(dst)
				if obj == nil || within(rs, obj.Pos()) {
					// Appending to a slice local to the loop body is
					// order-independent as far as the function result goes.
					continue
				}
				if sortedAfter(pass, enclosing, rs, obj) {
					continue
				}
				pass.Reportf(v.Pos(), "append to %q inside map iteration without a later sort; map order is random — sort the keys or the result", dst.Name)
			}
		case *ast.CallExpr:
			reportOrderSinkCall(pass, v)
		}
		return true
	})
}

// reportOrderSinkCall flags calls that produce externally visible order:
// fmt printing, io writes, and the order-sensitive sink methods.
func reportOrderSinkCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if pkgPath, name, ok := qualified(pass.Info, sel); ok {
		if pkgPath == "fmt" && (len(name) > 4 && name[:5] == "Print" || len(name) > 5 && name[:6] == "Fprint" || name == "Print") {
			pass.Reportf(call.Pos(), "fmt.%s inside map iteration emits in random order; sort the keys first", name)
		}
		return
	}
	// Method call: x.M(...) where x is a value, not a package.
	name := sel.Sel.Name
	if orderSinkMethods[name] || name == "Write" || name == "WriteString" {
		pass.Reportf(call.Pos(), "%s call inside map iteration feeds an order-sensitive sink in random order; sort the keys first", name)
	}
}

func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Info.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}

// within reports whether pos falls inside n's source extent.
func within(n ast.Node, pos token.Pos) bool {
	return pos >= n.Pos() && pos <= n.End()
}

// sortedAfter reports whether, somewhere after the range statement in the
// enclosing body, the appended slice is passed to a sort/slices call —
// the sanctioned pattern: collect, sort, then use.
func sortedAfter(pass *Pass, enclosing *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgPath, _, ok := qualified(pass.Info, sel)
		if !ok || (pkgPath != "sort" && pkgPath != "slices") {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pass.Info.ObjectOf(id) == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
