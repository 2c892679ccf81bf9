// Package linttest runs dsmlint analyzers against testdata fixtures, in
// the spirit of golang.org/x/tools/go/analysis/analysistest: fixture files
// mark expected findings with trailing comments of the form
//
//	code // want "regexp"
//
// A line that triggers several diagnostics lists several quoted
// patterns after one want marker, one per diagnostic. The harness fails
// the test for every unmatched expectation and every unexpected
// diagnostic.
package linttest

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"lrcdsm/internal/lint"
	"lrcdsm/internal/lint/analysis"
	"lrcdsm/internal/lint/loader"
)

var (
	wantRe    = regexp.MustCompile(`//\s*want\s+((?:"(?:[^"\\]|\\.)*"\s*)+)`)
	wantPatRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)
)

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads each package directory under <testdata>/src and applies the
// analyzer, checking diagnostics against // want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	moduleDir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range pkgs {
		dir := filepath.Join(testdata, "src", name)
		pkg, err := loader.LoadDir(moduleDir, dir, name)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", name, err)
		}
		expects := collectExpectations(t, pkg)
		diags, err := lint.RunAnalyzer(a, pkg)
		if err != nil {
			t.Fatalf("%s: analyzer failed on %s: %v", a.Name, name, err)
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			if !consume(expects, pos, d.Message) {
				t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
			}
		}
		for _, e := range expects {
			if !e.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.pattern)
			}
		}
	}
}

func collectExpectations(t *testing.T, pkg *loader.Package) []*expectation {
	t.Helper()
	var expects []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, pm := range wantPatRe.FindAllStringSubmatch(m[1], -1) {
					pat := strings.ReplaceAll(pm[1], `\"`, `"`)
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					expects = append(expects, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return expects
}

func consume(expects []*expectation, pos token.Position, msg string) bool {
	for _, e := range expects {
		if !e.matched && e.file == pos.Filename && e.line == pos.Line && e.pattern.MatchString(msg) {
			e.matched = true
			return true
		}
	}
	return false
}
