package lint

import (
	"go/ast"
	"go/types"
)

// obswiringAnalyzer forbids hand-rolled sink fan-out: a loop over a
// collection of sim.Sink values that dispatches events on each element
// bypasses the combinator's per-sink kind filter and panic attribution
// (a panicking attachment must identify itself instead of masquerading
// as an engine bug) and its nil/singleton collapsing. The only place
// such a loop belongs is the MultiSink methods themselves, so those are
// exempt structurally — everything else must go through sim.Combine.
var obswiringAnalyzer = &Analyzer{
	Name: "obswiring",
	Doc:  "sink fan-out goes through sim.Combine/MultiSink, never hand-rolled loops",
	Run:  runObsWiring,
}

func runObsWiring(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok || !isSinkSlice(p, rng.X) {
				return true
			}
			if fd := funcFor(file, rng.Pos()); fd != nil && isMultiSinkMethod(p, fd) {
				return true
			}
			// Only dispatch loops are fan-out: the body must call a method
			// on the iteration variable. Loops that merely collect sinks
			// (as Combine itself does) are fine.
			val, ok := rng.Value.(*ast.Ident)
			if !ok || val.Name == "_" {
				return true
			}
			obj := p.Info.Defs[val]
			if obj == nil || !callsMethodOn(p, rng.Body, obj) {
				return true
			}
			p.Reportf(rng.Pos(), "hand-rolled sink fan-out; combine sinks with sim.Combine to keep kind filtering and panic attribution")
			return true
		})
	}
}

// isSinkSlice reports whether the expression is a slice or array of
// sim.Sink.
func isSinkSlice(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	var elem types.Type
	switch t := tv.Type.Underlying().(type) {
	case *types.Slice:
		elem = t.Elem()
	case *types.Array:
		elem = t.Elem()
	default:
		return false
	}
	return isSimNamed(p, elem, "Sink")
}

// isSimNamed reports whether t is the named type of the sim package.
func isSimNamed(p *Pass, t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == p.Cfg.SimPkgPath
}

// isMultiSinkMethod reports whether the function is a method on
// sim.MultiSink — the one sanctioned fan-out site.
func isMultiSinkMethod(p *Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	tv, ok := p.Info.Types[fd.Recv.List[0].Type]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return isSimNamed(p, t, "MultiSink")
}

// callsMethodOn reports whether the body contains a method call whose
// receiver is exactly the given object.
func callsMethodOn(p *Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return !found
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && p.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
