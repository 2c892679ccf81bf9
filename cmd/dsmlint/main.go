// Command dsmlint runs the project's custom static analysis suite
// (mapiter, simclock, poolsafe, lockheld, vtalias — see internal/lint)
// over the given package patterns and exits non-zero if any diagnostic
// survives //dsmlint:ignore filtering. Malformed suppressions — an
// unknown analyzer name or a missing reason — are diagnostics
// themselves.
//
// Usage:
//
//	go run ./cmd/dsmlint [-json] ./...
//
// With -json the findings are emitted as a single JSON object on
// stdout ({"findings": [...], "count": N}) for CI tooling; the exit
// status is unchanged (0 clean, 1 findings, 2 errors).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"lrcdsm/internal/lint"
	"lrcdsm/internal/lint/analysis"
	"lrcdsm/internal/lint/loader"
)

// finding is one diagnostic in -json output.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

type report struct {
	Findings []finding `json:"findings"`
	Count    int       `json:"count"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON on stdout")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmlint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmlint:", err)
		os.Exit(2)
	}
	rep := report{Findings: []finding{}}
	emit := func(pkg *loader.Package, d analysis.Diagnostic) {
		pos := pkg.Fset.Position(d.Pos)
		f := finding{File: pos.Filename, Line: pos.Line, Col: pos.Column, Analyzer: d.Analyzer, Message: d.Message}
		rep.Findings = append(rep.Findings, f)
		if !*jsonOut {
			fmt.Printf("%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	for _, pkg := range pkgs {
		for _, d := range lint.SuppressionDiagnostics(pkg) {
			emit(pkg, d)
		}
		for _, a := range lint.AnalyzersFor(pkg.PkgPath) {
			diags, err := lint.RunAnalyzer(a, pkg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dsmlint: %s on %s: %v\n", a.Name, pkg.PkgPath, err)
				os.Exit(2)
			}
			for _, d := range diags {
				emit(pkg, d)
			}
		}
	}
	rep.Count = len(rep.Findings)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "dsmlint:", err)
			os.Exit(2)
		}
	}
	if rep.Count > 0 {
		fmt.Fprintf(os.Stderr, "dsmlint: %d finding(s)\n", rep.Count)
		os.Exit(1)
	}
}
