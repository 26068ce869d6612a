package lint

import (
	"go/ast"
	"go/types"
)

// determinismAnalyzer bans nondeterminism sources on sim-path packages:
// wall-clock reads (time.Now, time.Since) and the package-level math/rand
// functions that draw from the shared global source. Constructors that
// merely build an explicitly seeded generator (rand.New, rand.NewSource,
// …) are allowed here — the seedflow check audits their seeds.
//
// Only call expressions are flagged. Referencing time.Now as a value —
// say, as the default of an injectable clock field — is the sanctioned
// structural escape: the wall clock then enters the sim path only when a
// caller outside it installs the default.
//
// Since v2 the check is reachability-based on top of the direct-call
// scan: a static call from a sim-path function into a package outside
// the sim path is flagged when the callee transitively contains a banned
// call, however many helpers deep. Reachability follows static edges and
// function-value references only — interface dispatch is the sanctioned
// attachment boundary (a Sink legitimately installed from outside
// the sim path may read the wall clock; its package is simply not
// sim-path). Calls that stay inside the sim path are not re-reported:
// the callee's own package pass flags the fact at its source.
var determinismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "no wall-clock or global-RNG calls (or static calls reaching them) in sim-path packages",
	Run:  runDeterminism,
}

// randConstructors are the math/rand (and /v2) package-level functions
// that do not touch the global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

// bannedTime are the wall-clock reads the determinism invariant forbids.
var bannedTime = map[string]bool{"Now": true, "Since": true}

func runDeterminism(p *Pass) {
	if !p.Cfg.inSimPath(p.Path) {
		return
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods are fine; the bans are package-level
			}
			switch fn.Pkg().Path() {
			case "time":
				if bannedTime[fn.Name()] {
					p.Reportf(call.Pos(), "call to time.%s on the sim path; inject a clock (or slot counter) instead", fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if !randConstructors[fn.Name()] {
					p.Reportf(call.Pos(), "call to global %s.%s on the sim path; use an explicitly seeded *rand.Rand", fn.Pkg().Name(), fn.Name())
				}
			}
			return true
		})
	}
	reportEscapes(p, p.Cfg.inSimPath, "determinism", []FactKind{FactWallClock, FactGlobalRand})
}

// reportEscapes flags static call sites in this package whose immediate
// target lies outside the guarded path set but transitively contains one
// of the banned facts. Targets inside the guarded set are skipped — the
// fact is reported at its source by that package's own pass — so each
// violation surfaces exactly once.
func reportEscapes(p *Pass, guarded func(string) bool, what string, kinds []FactKind) {
	if !guarded(p.Path) {
		return
	}
	g := p.Graph()
	for _, node := range g.FuncsOf(p.Package) {
		for _, c := range node.Calls {
			if c.Callee == nil {
				continue // interface dispatch: the sanctioned attachment boundary
			}
			tn := g.Nodes[c.Callee]
			if tn == nil || guarded(tn.Pkg.Path) {
				continue
			}
			for _, kind := range kinds {
				if g.Reaches(c.Callee, kind, true) {
					p.Reportf(c.Pos, "call leaves the %s-guarded path and reaches a banned construct: %s",
						what, g.WitnessPath(c.Callee, kind, true))
					break
				}
			}
		}
	}
}

// calleeFunc resolves a call expression to the *types.Func it invokes, or
// nil for non-function calls (conversions, function-typed variables).
func calleeFunc(p *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}
