// Package lint implements relmaclint, the project's static-analysis
// suite. It enforces, mechanically, the invariants the simulation's
// bit-reproducibility rests on and that were previously only guarded by
// convention and golden tests.
//
// Since v2 the suite is built on two shared layers (see callgraph.go and
// dataflow.go): a module-wide call graph — static calls, method-value
// references, and interface dispatch approximated by implementing-type
// sets — and a lightweight intra-procedural dataflow pass that
// classifies storage roots (local / receiver-rooted / global), PRNG
// provenance and allocation sites. Both are built once per Suite run;
// every analyzer queries the same instance.
//
// The checks:
//
//   - determinism: no wall-clock reads (time.Now, time.Since) and no
//     global math/rand functions on sim-path packages — direct calls and
//     static call chains that reach one, however many helpers deep;
//   - seedflow: every rand.New / rand.NewSource seed must be traceable to
//     a parameter, config field or derivation — never an untracked
//     literal;
//   - floateq: no exact ==/!= between floats in the geometry package
//     outside the designated epsilon helpers in arc.go;
//   - frameswitch: every switch over the frames.Type tag is either
//     exhaustive against frames.NumTypes or carries a default;
//   - obswiring: multiple sinks are combined with sim.Combine /
//     MultiSink, never hand-rolled fan-out loops, preserving kind
//     filtering and panic attribution;
//   - simsafe: no goroutine spawns and no sync.Pool in the packages that
//     run inside the slot loop, nor reachable from them through static
//     calls — recycling there must use explicit deterministic free-lists;
//   - docpresent: every sim-path package carries a package doc comment
//     stating its role, determinism constraints and entry points;
//   - hookpure: hook implementations (sim.Sink and sim.Profiler) must
//     not reach a PRNG draw — a draw inside a hook shifts every later
//     draw in the run, so attaching the hook changes trajectories — nor
//     a sim.Engine/Env mutation (stores through engine state, or
//     non-allowlisted Engine/Env method calls);
//   - maporder: map iteration in sim-path packages must not leak Go's
//     randomized iteration order — no draws, output, unsorted result
//     appends or float accumulation in range bodies;
//   - hotalloc: no unbudgeted allocation sites statically reachable from
//     the slot path (Engine.Run/Step plus every sim.MAC implementation),
//     keeping the relbench one-allocation-per-transmission budget honest
//     at review time. Amortized receiver-rooted scratch, the accounted
//     frames.Frame, and cold panic/error paths are exempt.
//
// A finding can be suppressed per line with a
//
//	//relmac:allow <check> <reason>
//
// directive — trailing on the offending line, or on its own line
// immediately above it. Suppressions are never silent: the driver records
// each one and prints them in a summary, so every exception stays visible
// and justified. The package uses only the standard library (go/ast,
// go/parser, go/types, go/importer), keeping the module dependency-free.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"sort"
	"strings"
)

// Config selects which checks run and pins the import paths the
// path-sensitive checks key on. The zero value is not useful; start from
// DefaultConfig. The fixture harness overrides the path fields to point
// at testdata packages.
type Config struct {
	// Checks restricts the run to the named analyzers; empty means all.
	Checks []string
	// SimPaths are the import-path prefixes of sim-path packages — the
	// bit-reproducible core the determinism check guards.
	SimPaths []string
	// SerialPaths are the import-path prefixes of the packages that run
	// inside the slot loop, guarded by the simsafe check. A strict
	// subset of the sim path: the experiment harness is sim-path (its
	// seeds feed engines) but not serial (Sweep legitimately fans out
	// workers).
	SerialPaths []string
	// GeomPaths are the exact import paths the floateq check guards.
	GeomPaths []string
	// FramesPath is the package defining the frame Type tag and NumTypes.
	FramesPath string
	// SimPkgPath is the package defining Sink, MultiSink and Profiler.
	SimPkgPath string
	// EpsFile and EpsIdent designate the epsilon-helper exemption for
	// floateq: functions declared in EpsFile whose body references
	// EpsIdent may compare floats exactly.
	EpsFile  string
	EpsIdent string
	// HotPathRoots are the functions whose static call closure is the
	// hot slot path the hotalloc check guards, named as
	// "pkg/path.Type.Method" or "pkg/path.Func" (no receiver
	// punctuation).
	HotPathRoots []string
	// HotRootIfaces are interfaces in SimPkgPath whose loaded
	// implementations' methods are hot roots too — the engine invokes
	// them per slot through dynamic dispatch the static closure cannot
	// see. Default: the MAC contract.
	HotRootIfaces []string
	// HotAllocTypes are named types ("pkg/path.Type") whose allocation is
	// the accounted per-transmission currency of the relbench budget, and
	// therefore exempt from hotalloc.
	HotAllocTypes []string
}

// DefaultConfig returns the project configuration: the sim-path package
// set whose byte-for-byte reproducibility the golden tests pin, the
// geometry package of Theorems 1–4, and the frames/sim anchor packages.
func DefaultConfig() *Config {
	return &Config{
		SimPaths: []string{
			"relmac/internal/sim",
			"relmac/internal/core",
			"relmac/internal/mac",
			"relmac/internal/baseline",
			"relmac/internal/fault",
			"relmac/internal/frames",
			"relmac/internal/geom",
			// The experiment harness drives the sim path (Run, Sweep,
			// seedFor): a wall-clock read there perturbs nothing today but
			// is exactly the class of drift the check exists to stop.
			"relmac/internal/experiments",
			// The phase profiler's hooks run inside the slot loop; its
			// clock is injectable (never a static time.Now call), and
			// hookpure holds its hooks to PRNG/engine neutrality.
			"relmac/internal/prof",
		},
		SerialPaths: []string{
			"relmac/internal/sim",
			"relmac/internal/core",
			"relmac/internal/mac",
			"relmac/internal/baseline",
			"relmac/internal/fault",
			"relmac/internal/frames",
			"relmac/internal/geom",
			"relmac/internal/topo",
			"relmac/internal/traffic",
			"relmac/internal/metrics",
			"relmac/internal/obs",
			"relmac/internal/capture",
			"relmac/internal/beacon",
			"relmac/internal/mobility",
			"relmac/internal/prof",
		},
		GeomPaths:  []string{"relmac/internal/geom"},
		FramesPath: "relmac/internal/frames",
		SimPkgPath: "relmac/internal/sim",
		EpsFile:    "arc.go",
		EpsIdent:   "coverEps",
		HotPathRoots: []string{
			"relmac/internal/sim.Engine.Run",
			"relmac/internal/sim.Engine.Step",
		},
		HotRootIfaces: []string{"MAC"},
		HotAllocTypes: []string{"relmac/internal/frames.Frame"},
	}
}

// Finding is one rule violation at a source position.
type Finding struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Check, f.Message)
}

// Suppression records one finding silenced by a //relmac:allow directive,
// so exceptions surface in the summary instead of vanishing.
type Suppression struct {
	Check  string `json:"check"`
	File   string `json:"file"`
	Line   int    `json:"line"`
	Reason string `json:"reason"`
}

func (s Suppression) String() string {
	return fmt.Sprintf("%s:%d: [%s] allowed: %s", s.File, s.Line, s.Check, s.Reason)
}

// Result is the outcome of one suite run.
type Result struct {
	Findings     []Finding     `json:"findings"`
	Suppressions []Suppression `json:"suppressions"`
}

// Analyzer is one named check over a loaded package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Pass)
}

// Pass gives an analyzer its package plus the configuration, the suite
// (for the shared call graph) and a report sink.
type Pass struct {
	*Package
	Cfg    *Config
	Suite  *Suite
	report func(pos token.Pos, msg string)
}

// Graph returns the suite's shared module-wide call graph.
func (p *Pass) Graph() *Graph { return p.Suite.Graph() }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// Analyzers returns the full suite in fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		determinismAnalyzer,
		seedflowAnalyzer,
		floateqAnalyzer,
		frameswitchAnalyzer,
		obswiringAnalyzer,
		simsafeAnalyzer,
		docpresentAnalyzer,
		hookpureAnalyzer,
		maporderAnalyzer,
		hotallocAnalyzer,
	}
}

// CheckNames returns the valid check names, for directive validation and
// CLI help.
func CheckNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
}

// directivePrefix introduces a suppression comment.
const directivePrefix = "relmac:allow"

// directive is one parsed //relmac:allow comment.
type directive struct {
	file   string
	line   int // line the directive comment sits on
	target int // line whose findings it suppresses
	check  string
	reason string
	used   bool
}

type directiveSet []*directive

// match returns the directive suppressing the finding, if any.
func (ds directiveSet) match(f Finding) *directive {
	for _, d := range ds {
		if d.file == f.File && d.target == f.Line && d.check == f.Check {
			return d
		}
	}
	return nil
}

// parseDirectives extracts every //relmac:allow directive in the package.
// A trailing directive targets its own line; a directive alone on its
// line targets the next line. Malformed directives (missing check or
// reason, unknown check) are findings themselves — an unjustified
// exception is a violation, not an escape hatch.
func parseDirectives(pkg *Package) (directiveSet, []Finding) {
	valid := map[string]bool{}
	for _, n := range CheckNames() {
		valid[n] = true
	}
	var ds directiveSet
	var bad []Finding
	for _, file := range pkg.Files {
		var src []byte
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+directivePrefix)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 || !valid[fields[0]] {
					bad = append(bad, Finding{
						Check: "directive", File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Message: fmt.Sprintf("malformed directive: want //%s <check> <reason>, checks: %s",
							directivePrefix, strings.Join(CheckNames(), "|")),
					})
					continue
				}
				if src == nil {
					src, _ = os.ReadFile(pos.Filename)
				}
				target := pos.Line
				if ownLine(src, pos) {
					target = pos.Line + 1
				}
				ds = append(ds, &directive{
					file: pos.Filename, line: pos.Line, target: target,
					check: fields[0], reason: strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return ds, bad
}

// ownLine reports whether only whitespace precedes the comment at pos on
// its source line, i.e. the directive stands alone and targets the line
// below.
func ownLine(src []byte, pos token.Position) bool {
	if src == nil {
		return false
	}
	// pos.Offset is the comment start; scan back to the line start.
	for i := pos.Offset - 1; i >= 0; i-- {
		switch src[i] {
		case '\n':
			return true
		case ' ', '\t', '\r':
			continue
		default:
			return false
		}
	}
	return true
}

// pathHasPrefix reports whether the import path is the prefix itself or a
// sub-package of it.
func pathHasPrefix(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

// inSimPath reports whether the package is part of the bit-reproducible
// sim path.
func (c *Config) inSimPath(path string) bool {
	for _, p := range c.SimPaths {
		if pathHasPrefix(path, p) {
			return true
		}
	}
	return false
}

// funcFor returns the innermost function declaration enclosing pos in the
// file, if any.
func funcFor(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}
