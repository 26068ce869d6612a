package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// sharedStd is one stdlib source importer, with its file set, shared by
// every loader the tests build: type-checking the standard library from
// source is most of a fresh loader's cost, and the imported packages
// are immutable. Tests in this package run sequentially.
var sharedStd struct {
	fset *token.FileSet
	imp  types.ImporterFrom
}

// newTestLoader builds a loader for the module rooted at root that
// reuses the shared stdlib importer.
func newTestLoader(t *testing.T, root string) *Loader {
	t.Helper()
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if sharedStd.imp == nil {
		sharedStd.fset, sharedStd.imp = l.Fset, l.std
	}
	l.Fset, l.std = sharedStd.fset, sharedStd.imp
	return l
}

// loadFixture loads one testdata package under the given synthetic import
// path prefix and runs the suite with cfg.
func loadFixture(t *testing.T, rel string, cfg *Config) (*Package, Result) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader := newTestLoader(t, root)
	dir := filepath.Join("testdata", "src", filepath.FromSlash(rel))
	pkg, err := loader.LoadDir(dir, "fix/"+rel)
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s: type error: %v", rel, terr)
	}
	return pkg, Run(loader, []*Package{pkg}, cfg)
}

// wantRe extracts the backtick-quoted `// want` expectation patterns
// from fixture comments.
var wantRe = regexp.MustCompile("want `([^`]+)`")

// expectations maps file:line to the expectation regexes declared there.
func expectations(t *testing.T, pkg *Package) map[string][]*regexp.Regexp {
	t.Helper()
	out := map[string][]*regexp.Regexp{}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want pattern %q: %v", m[1], err)
					}
					pos := pkg.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					out[key] = append(out[key], re)
				}
			}
		}
	}
	return out
}

// TestFixtures runs every analyzer over its `// want`-annotated fixture
// packages: each expectation must be matched by a finding on its line,
// and every finding must be expected. The *good* fixtures carry no
// expectations at all, proving each analyzer stays silent on the
// sanctioned patterns.
func TestFixtures(t *testing.T) {
	cases := []struct {
		rel string
		cfg func(*Config)
	}{
		{"determinism/bad", func(c *Config) { c.SimPaths = []string{"fix/determinism"} }},
		{"determinism/good", func(c *Config) { c.SimPaths = []string{"fix/determinism"} }},
		{"seedflow/bad", nil},
		{"seedflow/good", nil},
		{"floateq/geomfix", func(c *Config) { c.GeomPaths = []string{"fix/floateq/geomfix"} }},
		{"frameswitch/fix", nil},
		{"obswiring/fix", nil},
		{"simsafe/bad", func(c *Config) { c.SerialPaths = []string{"fix/simsafe"} }},
		{"simsafe/good", func(c *Config) { c.SerialPaths = []string{"fix/simsafe"} }},
		{"docpresent/bad", func(c *Config) { c.SimPaths = []string{"fix/docpresent"} }},
		{"docpresent/good", func(c *Config) { c.SimPaths = []string{"fix/docpresent"} }},
		{"prngflow/bad", nil},
		{"prngflow/good", nil},
		{"hookpure/bad", nil},
		{"hookpure/good", nil},
		{"profpure/bad", nil},
		{"profpure/good", nil},
		{"maporder/bad", func(c *Config) { c.SimPaths = []string{"fix/maporder"} }},
		{"maporder/good", func(c *Config) { c.SimPaths = []string{"fix/maporder"} }},
		{"hotalloc/bad", func(c *Config) { c.HotPathRoots = []string{"fix/hotalloc/bad.run"} }},
		{"hotalloc/good", func(c *Config) { c.HotPathRoots = []string{"fix/hotalloc/good.run"} }},
	}
	for _, tc := range cases {
		t.Run(tc.rel, func(t *testing.T) {
			cfg := DefaultConfig()
			if tc.cfg != nil {
				tc.cfg(cfg)
			}
			pkg, res := loadFixture(t, tc.rel, cfg)
			wants := expectations(t, pkg)
			if strings.HasSuffix(tc.rel, "good") && len(wants) > 0 {
				t.Fatalf("good fixture %s must not declare expectations", tc.rel)
			}
			matched := map[string]int{}
			for _, f := range res.Findings {
				key := fmt.Sprintf("%s:%d", f.File, f.Line)
				ok := false
				for _, re := range wants[key] {
					if re.MatchString(f.Message) {
						ok = true
						matched[key]++
					}
				}
				if !ok {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for key, res := range wants {
				if matched[key] < len(res) {
					t.Errorf("%s: expected finding not reported (want %d, matched %d)", key, len(res), matched[key])
				}
			}
			if len(res.Suppressions) != 0 {
				t.Errorf("fixture %s: unexpected suppressions: %v", tc.rel, res.Suppressions)
			}
		})
	}
}

// TestDirectives exercises the //relmac:allow path: trailing and own-line
// directives suppress and are recorded, stale directives and malformed
// ones are findings.
func TestDirectives(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SimPaths = []string{"fix/directive"}
	_, res := loadFixture(t, "directive/fix", cfg)

	if got := len(res.Suppressions); got != 2 {
		t.Fatalf("suppressions = %d, want 2 (trailing + own-line): %v", got, res.Suppressions)
	}
	for _, s := range res.Suppressions {
		if s.Check != "determinism" {
			t.Errorf("suppression check = %q, want determinism", s.Check)
		}
		if !strings.Contains(s.Reason, "suppression") {
			t.Errorf("suppression reason %q not recorded from the directive", s.Reason)
		}
	}

	var stale, malformed int
	for _, f := range res.Findings {
		switch {
		case f.Check == "directive" && strings.Contains(f.Message, "suppresses nothing"):
			stale++
		case f.Check == "directive" && strings.Contains(f.Message, "malformed"):
			malformed++
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if stale != 1 {
		t.Errorf("stale-directive findings = %d, want 1", stale)
	}
	if malformed != 2 {
		t.Errorf("malformed-directive findings = %d, want 2 (unknown check, missing reason)", malformed)
	}
}

// TestSuiteCleanOnRealModule is the self-check: the full suite over the
// real module must be finding-free, so `go test ./...` itself fails the
// build on any new violation. Suppressions are legal but must carry their
// reasons, which the directive parser already enforces; they are logged
// here so exceptions stay visible in test output too.
func TestSuiteCleanOnRealModule(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader := newTestLoader(t, root)
	pkgs, err := loader.Load([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			t.Errorf("%s: type error: %v", p.Path, terr)
		}
	}
	res := Run(loader, pkgs, DefaultConfig())
	for _, f := range res.Findings {
		t.Errorf("finding: %s", f)
	}
	for _, s := range res.Suppressions {
		t.Logf("suppression: %s", s)
	}
}

// TestMutationGuardDeterminism is the mutation-style CI guard: a clean
// sim-path fixture lints clean, and injecting a single time.Now() call
// into it produces exactly one determinism finding — proving the check
// actually has teeth rather than passing vacuously.
func TestMutationGuardDeterminism(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	const clean = `// Package simfix is a mutation-guard fixture.
package simfix

import "time"

func stamp(clock func() time.Time) time.Time {
	return clock()
}
`
	const mutated = `// Package simfix is a mutation-guard fixture.
package simfix

import "time"

func stamp(clock func() time.Time) time.Time {
	_ = clock()
	return time.Now()
}
`
	lintSrc := func(name, src string) Result {
		t.Helper()
		dir := filepath.Join(t.TempDir(), name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "simfix.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		loader := newTestLoader(t, root)
		pkg, err := loader.LoadDir(dir, "mutfix/"+name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.SimPaths = []string{"mutfix"}
		return Run(loader, []*Package{pkg}, cfg)
	}

	if res := lintSrc("clean", clean); len(res.Findings) != 0 {
		t.Fatalf("clean fixture: findings = %v, want none", res.Findings)
	}
	res := lintSrc("mut", mutated)
	if len(res.Findings) != 1 {
		t.Fatalf("mutated fixture: findings = %v, want exactly one", res.Findings)
	}
	f := res.Findings[0]
	if f.Check != "determinism" || !strings.Contains(f.Message, "time.Now") || f.Line != 8 {
		t.Errorf("mutated fixture: got %s, want a determinism finding for time.Now at line 8", f)
	}
}

// TestMutationGuardProfpure proves hookpure holds profilers to the same
// contract as sinks: a clean injectable-clock profiler lints clean, and
// injecting a single PRNG draw into its Enter hook produces exactly one
// hookpure finding.
func TestMutationGuardProfpure(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	const clean = `// Package proffix is a mutation-guard fixture.
package proffix

import (
	"time"

	"relmac/internal/sim"
)

type timer struct {
	clock func() time.Time
	last  time.Time
	acc   [sim.NumPhases]int64
}

func (t *timer) RunStart()         { t.last = t.clock() }
func (t *timer) Enter(p sim.Phase) { t.acc[int(p)] += t.clock().Sub(t.last).Nanoseconds() }
func (t *timer) RunEnd()           {}
`
	const mutated = `// Package proffix is a mutation-guard fixture.
package proffix

import (
	"math/rand"
	"time"

	"relmac/internal/sim"
)

type timer struct {
	clock func() time.Time
	last  time.Time
	acc   [sim.NumPhases]int64
}

func (t *timer) RunStart()         { t.last = t.clock() }
func (t *timer) Enter(p sim.Phase) { t.acc[int(p)] += int64(rand.Intn(8)) }
func (t *timer) RunEnd()           {}
`
	lintSrc := func(name, src string) Result {
		t.Helper()
		dir := filepath.Join(t.TempDir(), name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "proffix.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		loader := newTestLoader(t, root)
		pkg, err := loader.LoadDir(dir, "mutfix/"+name)
		if err != nil {
			t.Fatal(err)
		}
		return Run(loader, []*Package{pkg}, DefaultConfig())
	}

	if res := lintSrc("clean", clean); len(res.Findings) != 0 {
		t.Fatalf("clean profiler: findings = %v, want none", res.Findings)
	}
	res := lintSrc("mut", mutated)
	if len(res.Findings) != 1 {
		t.Fatalf("mutated profiler: findings = %v, want exactly one", res.Findings)
	}
	f := res.Findings[0]
	if f.Check != "hookpure" || !strings.Contains(f.Message, "PRNG draw") {
		t.Errorf("mutated profiler: got %s, want a hookpure PRNG-draw finding", f)
	}
}
