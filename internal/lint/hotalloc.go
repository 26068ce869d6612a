package lint

import (
	"go/types"
	"sort"
	"strings"
)

// hotallocAnalyzer keeps the relbench allocation budget honest at review
// time instead of bench time: it walks the static call closure of the
// slot path — Engine.Run/Step plus every loaded implementation of the
// sim.MAC interface (the code the engine invokes once per station per
// slot) — and flags allocation sites inside it: make, new, map/slice
// literals, address-taken composite literals, append growth, escaping
// closures, and interface boxing of non-pointer-shaped arguments.
//
// The closure follows static calls and function-value references only.
// Interface dispatch is the attachment boundary: what a Source or Sink
// allocates is budgeted by its own roots (or by hookpure for contract
// violations), not smeared over the engine's.
//
// Exempt, because they are the sanctioned idioms the slot loop is built
// from:
//   - amortized storage: allocations assigned into receiver-, parameter-
//     or package-rooted destinations, including field-backed locals
//     (x := e.buf[:0]) — scratch that persists and stops growing;
//   - the budget types (frames.Frame by default): the accounted
//     one-allocation-per-transmission currency relbench tracks;
//   - panic / error-construction arguments: crash and rejection paths,
//     not steady-state slot work;
//   - immediately invoked function literals: dispatch, not escape.
var hotallocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "no unbudgeted allocation sites statically reachable from the slot path",
	Run:  runHotalloc,
}

func runHotalloc(p *Pass) {
	hot := p.Suite.hotSet()
	g := p.Graph()
	budget := map[string]bool{}
	for _, t := range p.Cfg.HotAllocTypes {
		budget[t] = true
	}
	for _, node := range g.FuncsOf(p.Package) {
		chain, ok := hot[node.Fn]
		if !ok {
			continue
		}
		for _, a := range node.Allocs {
			if a.Amortized || a.PanicArg {
				continue
			}
			if named := namedOf(a.Type); named != nil && named.Obj().Pkg() != nil &&
				budget[named.Obj().Pkg().Path()+"."+named.Obj().Name()] {
				continue
			}
			p.Reportf(a.Pos, "%s on the hot slot path (%s); use amortized receiver-rooted scratch or a free-list", a.What, chain)
		}
	}
}

// hotSet computes (once per suite) the static call closure of the
// configured hot roots, mapping each reachable function to a short
// root→…→function chain for messages.
func (s *Suite) hotSet() map[*types.Func]string {
	if s.hot != nil {
		return s.hot
	}
	g := s.Graph()
	s.hot = map[*types.Func]string{}

	var roots []*types.Func
	want := map[string]bool{}
	for _, r := range s.Cfg.HotPathRoots {
		want[r] = true
	}
	for fn := range g.Nodes {
		if want[normalFuncName(fn)] {
			roots = append(roots, fn)
		}
	}
	// Implementations of the configured sim-package interfaces (the MAC
	// contract) are roots too: the engine invokes them per slot through
	// dynamic dispatch the static closure cannot see.
	for _, ifaceName := range s.Cfg.HotRootIfaces {
		for _, pkg := range g.Pkgs {
			if pkg.Path != s.Cfg.SimPkgPath || pkg.Types == nil {
				continue
			}
			tn, ok := pkg.Types.Scope().Lookup(ifaceName).(*types.TypeName)
			if !ok {
				continue
			}
			it, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				roots = append(roots, g.implementers(it.Method(i))...)
			}
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].FullName() < roots[j].FullName() })

	type hop struct {
		fn    *types.Func
		chain string
	}
	var queue []hop
	for _, r := range roots {
		if _, seen := s.hot[r]; seen {
			continue
		}
		s.hot[r] = "root " + shortName(r)
		queue = append(queue, hop{r, shortName(r)})
	}
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		node := g.Nodes[cur.fn]
		if node == nil {
			continue
		}
		for _, c := range node.Calls {
			if c.Callee == nil {
				continue // interface dispatch: attachment boundary
			}
			t := c.Callee
			if _, seen := s.hot[t]; seen || g.Nodes[t] == nil {
				continue
			}
			chain := cur.chain + " → " + shortName(t)
			s.hot[t] = "reached via " + chain
			queue = append(queue, hop{t, chain})
		}
	}
	return s.hot
}

// normalFuncName renders a function's full name without receiver
// punctuation — "pkg/path.Type.Method" or "pkg/path.Func" — the format
// Config.HotPathRoots uses.
func normalFuncName(fn *types.Func) string {
	name := fn.FullName()
	name = strings.ReplaceAll(name, "(", "")
	name = strings.ReplaceAll(name, ")", "")
	return strings.ReplaceAll(name, "*", "")
}
