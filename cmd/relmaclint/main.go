// Command relmaclint runs the project's static-analysis suite
// (internal/lint) over the module. Since v2 the suite is built on a
// module-wide call graph and a lightweight dataflow layer: determinism
// and simsafe are reachability-based, and hookpure, maporder and
// hotalloc guard the hook, map-order and allocation contracts of the
// slot loop. See the package documentation of internal/lint for the
// rules and the //relmac:allow directive syntax.
//
// Usage:
//
//	go run ./cmd/relmaclint [-json] [-sarif out.sarif] \
//	    [-checks determinism,hookpure] [-list] [patterns...]
//
// Patterns default to ./... and follow the go tool's convention
// (testdata, vendor and hidden directories are skipped). -sarif writes a
// SARIF 2.1.0 log for GitHub code scanning alongside the normal output.
// -list prints the registered checks and exits. The exit status is 1
// when findings remain after suppression, 2 on a load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"relmac/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings and suppressions as JSON (for CI annotation)")
	sarifOut := flag.String("sarif", "", "also write findings as SARIF 2.1.0 to the given file (for code scanning)")
	checks := flag.String("checks", "", "comma-separated subset of checks to run (default all: "+strings.Join(lint.CheckNames(), ",")+")")
	list := flag.Bool("list", false, "print the registered checks with their one-line docs and exit")
	dir := flag.String("C", ".", "directory to locate the module from")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := lint.FindModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "relmaclint: type error in %s: %v\n", p.Path, terr)
		}
	}

	cfg := lint.DefaultConfig()
	if *checks != "" {
		cfg.Checks = strings.Split(*checks, ",")
	}
	suite := lint.NewSuite(loader, cfg)
	res := suite.Run(pkgs)

	if *sarifOut != "" {
		if err := writeJSON(*sarifOut, lint.ToSARIF(res, root)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		for _, f := range res.Findings {
			fmt.Println(f)
		}
		for _, s := range res.Suppressions {
			fmt.Println(s)
		}
		fmt.Printf("relmaclint: %d package(s), %d finding(s), %d suppression(s)\n",
			len(pkgs), len(res.Findings), len(res.Suppressions))
	}
	if len(res.Findings) > 0 {
		os.Exit(1)
	}
}

// writeJSON marshals v, indented, to path.
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
