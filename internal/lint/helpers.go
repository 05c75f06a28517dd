package lint

import (
	"go/ast"
	"go/types"
	"strings"
	"unicode"
)

// isInternalPkg reports whether the import path is under the module's
// internal/ tree — the simulation code the determinism invariants protect.
func isInternalPkg(path string) bool {
	return strings.Contains(path, "/internal/") || strings.HasSuffix(path, "/internal")
}

// isWallClockPkg reports whether the import path is sanctioned for
// wall-clock time use: internal/serve (and its subpackages) runs on real
// time by design — latency histograms, Retry-After — while
// simulation time stays inside the sessions it drives.
func isWallClockPkg(path string) bool {
	return strings.HasSuffix(path, "/internal/serve") ||
		strings.Contains(path, "/internal/serve/")
}

// simPkgSegments are the internal packages where simtime.Duration is the
// required currency for durations.
var simPkgSegments = map[string]bool{
	"sched":     true,
	"core":      true,
	"eucon":     true,
	"precision": true,
	"bus":       true,
	"vehicle":   true,
	"workload":  true,
}

// isSimPkg reports whether the import path is one of the simulation
// packages (or a subpackage of one, e.g. internal/vehicle/acc).
func isSimPkg(path string) bool {
	_, rest, ok := strings.Cut(path, "/internal/")
	if !ok {
		return false
	}
	seg, _, _ := strings.Cut(rest, "/")
	return simPkgSegments[seg]
}

// qualified resolves a selector expression of the form pkg.Name where pkg
// is an imported package, returning the package's import path and the
// selected name.
func qualified(info *types.Info, sel *ast.SelectorExpr) (pkgPath, name string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// isNamed reports whether t is the named type pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// containsType reports whether t or any type it is composed of (through
// pointers, slices, arrays, maps, and channels) satisfies match.
func containsType(t types.Type, match func(types.Type) bool) bool {
	seen := make(map[types.Type]bool)
	var walk func(types.Type) bool
	walk = func(t types.Type) bool {
		if t == nil || seen[t] {
			return false
		}
		seen[t] = true
		if match(t) {
			return true
		}
		switch u := t.(type) {
		case *types.Pointer:
			return walk(u.Elem())
		case *types.Slice:
			return walk(u.Elem())
		case *types.Array:
			return walk(u.Elem())
		case *types.Map:
			return walk(u.Key()) || walk(u.Elem())
		case *types.Chan:
			return walk(u.Elem())
		}
		return false
	}
	return walk(t)
}

// isFloat reports whether t's underlying type is a floating-point basic
// type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// camelSegments splits a Go identifier into lower-cased CamelCase segments:
// "innerTick" → ["inner", "tick"].
func camelSegments(name string) []string {
	var segs []string
	start := 0
	for i, r := range name {
		if i > 0 && unicode.IsUpper(r) {
			segs = append(segs, strings.ToLower(name[start:i]))
			start = i
		}
	}
	segs = append(segs, strings.ToLower(name[start:]))
	return segs
}

// funcCtx describes the innermost enclosing function of a node: the
// enclosing named declaration (nil at top level) and whether the node sits
// inside a function literal.
type funcCtx struct {
	decl   *ast.FuncDecl
	inFlit bool
}

// walkWithFuncCtx walks every file, calling fn for each non-function node
// with its enclosing function context.
func walkWithFuncCtx(files []*ast.File, fn func(n ast.Node, ctx funcCtx)) {
	for _, f := range files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			switch n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
			default:
				var ctx funcCtx
			scan:
				for i := len(stack) - 1; i >= 0; i-- {
					switch d := stack[i].(type) {
					case *ast.FuncLit:
						ctx.inFlit = true
					case *ast.FuncDecl:
						ctx.decl = d
						break scan
					}
				}
				fn(n, ctx)
			}
			stack = append(stack, n)
			return true
		})
	}
}
