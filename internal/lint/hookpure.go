package lint

import (
	"go/types"
	"sort"
)

// hookpureAnalyzer enforces the observation contract of every hook the
// engine calls from inside its slot loop — the event Sink and the phase
// Profiler: hooks read the simulation, they do not steer it. Two
// failure classes break it, and either makes a run with the hook
// attached diverge from one without, which the golden byte-diff tests
// would only catch after the fact:
//
//   - a PRNG draw: one draw inside a hook shifts every later draw in the
//     run. The taint rule comes from the dataflow layer: a *rand.Rand is
//     clean only when constructed locally via rand.New(...); draws on
//     parameters, fields or engine-supplied generators (Env.Rand(),
//     Engine.Rand()) alias the simulation's shared, order-sensitive
//     stream, and global math/rand calls are draws too;
//   - an engine mutation: a store through sim.Engine/Env state, or a call
//     to a mutating engine method (the Env.Report* emitters included —
//     hook code re-entering the engine's per-slot bookkeeping).
//     Read-only methods (Env.Now, Env.Wants, Engine.Topo, …) are
//     allowlisted.
//
// Both are facts of the shared graph walk (see dataflow.go); the check
// reports every hook implementation declared in the package from which
// one is reachable, interface dispatch included.
var hookpureAnalyzer = &Analyzer{
	Name: "hookpure",
	Doc:  "Sink and Profiler implementations must not reach PRNG draws or engine mutations",
	Run:  runHookpure,
}

// hookInterfaces are the sim-package interfaces whose implementations
// the engine calls from inside Run.
var hookInterfaces = []string{"Sink", "Profiler"}

func runHookpure(p *Pass) {
	g := p.Graph()
	for _, hook := range implMethods(p, hookInterfaces) {
		for _, kind := range []FactKind{FactTaintedDraw, FactParamDraw, FactGlobalRand} {
			if g.Reaches(hook.Fn, kind, false) {
				p.Reportf(hook.Decl.Pos(), "hook %s reaches a PRNG draw; hooks must be PRNG-neutral: %s",
					shortName(hook.Fn), g.WitnessPath(hook.Fn, kind, false))
				break
			}
		}
		if g.Reaches(hook.Fn, FactEngineWrite, false) {
			p.Reportf(hook.Decl.Pos(), "hook %s reaches a sim.Engine/Env mutation; hooks must not steer the run: %s",
				shortName(hook.Fn), g.WitnessPath(hook.Fn, FactEngineWrite, false))
		}
	}
}

// implMethods returns the implementations, declared in the pass's
// package, of the methods of the named sim-package interfaces. Methods
// promoted from an embedded type declared elsewhere are checked by that
// package's own pass, keeping every finding attributed exactly once.
// Results are deduplicated (overlapping interfaces count a method once)
// and in source order.
func implMethods(p *Pass, ifaceNames []string) []*FuncNode {
	g := p.Graph()
	var simPkg *types.Package
	for _, pkg := range g.Pkgs {
		if pkg.Path == p.Cfg.SimPkgPath && pkg.Types != nil {
			simPkg = pkg.Types
			break
		}
	}
	if simPkg == nil && p.Types != nil && p.Path == p.Cfg.SimPkgPath {
		simPkg = p.Types
	}
	if simPkg == nil {
		return nil
	}
	var ifaces []*types.Interface
	for _, name := range ifaceNames {
		if tn, ok := simPkg.Scope().Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
	}
	seen := map[*types.Func]bool{}
	var out []*FuncNode
	for _, named := range g.named {
		if named.Obj().Pkg() != p.Types {
			continue
		}
		for _, it := range ifaces {
			var impl types.Type
			switch {
			case types.Implements(named, it):
				impl = named
			case types.Implements(types.NewPointer(named), it):
				impl = types.NewPointer(named)
			default:
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				obj, _, _ := types.LookupFieldOrMethod(impl, true, it.Method(i).Pkg(), it.Method(i).Name())
				mf, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				mf = canon(mf)
				node := g.Nodes[mf]
				if node == nil || node.Pkg != p.Package || seen[mf] {
					continue
				}
				seen[mf] = true
				out = append(out, node)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}
