// Package lint is the dsmlint analyzer suite: project-specific static
// checks that guard the properties the repo's results depend on —
// bit-for-bit deterministic simulation (mapiter, simclock), sound reuse
// of pooled buffers on the hot path (poolsafe), and the live runtime's
// concurrency invariants (lockheld, vtalias).
//
// A finding can be suppressed with an annotation on the same line or the
// line above:
//
//	//dsmlint:ignore <analyzer> <reason>
//
// The reason is mandatory: the driver reports any annotation that names
// no known analyzer or gives no reason (see SuppressionDiagnostics), so
// every suppression in the tree says why the flagged pattern is safe.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"lrcdsm/internal/lint/analysis"
	"lrcdsm/internal/lint/loader"
)

// All is the full dsmlint suite.
var All = []*analysis.Analyzer{MapIter, SimClock, PoolSafe, LockHeld, VTAlias}

// DeterminismPkgs are the import paths (and their subpackages) whose code
// runs inside — or drives — the deterministic simulation. The determinism
// analyzers (mapiter, simclock) apply only here; poolsafe applies
// everywhere. The live runtime (lrcdsm/internal/live and its
// subpackages) is deliberately NOT listed: it runs real goroutines over
// real transports, where wall-clock time and schedule-dependent map
// iteration are legitimate.
var DeterminismPkgs = []string{
	"lrcdsm/internal/sim",
	"lrcdsm/internal/core",
	"lrcdsm/internal/page",
	"lrcdsm/internal/harness",
}

// determinismScoped names the analyzers restricted to DeterminismPkgs.
var determinismScoped = map[string]bool{
	MapIter.Name:  true,
	SimClock.Name: true,
}

// LivePkgs are the import paths (and their subpackages) that make up the
// live runtime: real goroutines over real transports. The concurrency
// analyzers (lockheld, vtalias) apply only here — the simulator is
// single-threaded by construction, so holding a mutex across a channel
// operation or aliasing a decoded frame cannot occur there.
var LivePkgs = []string{
	"lrcdsm/internal/live",
}

// liveScoped names the analyzers restricted to LivePkgs.
var liveScoped = map[string]bool{
	LockHeld.Name: true,
	VTAlias.Name:  true,
}

// InDeterminismScope reports whether pkgPath falls under DeterminismPkgs.
func InDeterminismScope(pkgPath string) bool {
	return underAny(pkgPath, DeterminismPkgs)
}

// InLiveScope reports whether pkgPath falls under LivePkgs.
func InLiveScope(pkgPath string) bool {
	return underAny(pkgPath, LivePkgs)
}

func underAny(pkgPath string, roots []string) bool {
	for _, p := range roots {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// AnalyzersFor returns the analyzers applicable to the given package.
func AnalyzersFor(pkgPath string) []*analysis.Analyzer {
	var as []*analysis.Analyzer
	for _, a := range All {
		if determinismScoped[a.Name] && !InDeterminismScope(pkgPath) {
			continue
		}
		if liveScoped[a.Name] && !InLiveScope(pkgPath) {
			continue
		}
		as = append(as, a)
	}
	return as
}

// RunAnalyzer applies one analyzer to one loaded package and returns its
// surviving diagnostics, sorted by position, with //dsmlint:ignore
// annotations already filtered out.
func RunAnalyzer(a *analysis.Analyzer, pkg *loader.Package) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		return nil, err
	}
	ig := buildIgnoreIndex(pkg)
	var kept []analysis.Diagnostic
	for _, d := range diags {
		if !ig.ignored(pkg.Fset, a.Name, d.Pos) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Pos < kept[j].Pos })
	return kept, nil
}

// ignoreIndex records, per file and line, which analyzers are suppressed
// by a //dsmlint:ignore annotation on that line.
type ignoreIndex map[string]map[int]map[string]bool

// eachIgnoreAnnotation calls fn for every //dsmlint:ignore comment in the
// package with the annotation's position and its whitespace-split fields
// (analyzer name first, reason words after).
func eachIgnoreAnnotation(pkg *loader.Package, fn func(pos token.Pos, fields []string)) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "dsmlint:ignore") {
					continue
				}
				fn(c.Pos(), strings.Fields(strings.TrimPrefix(text, "dsmlint:ignore")))
			}
		}
	}
}

func buildIgnoreIndex(pkg *loader.Package) ignoreIndex {
	idx := ignoreIndex{}
	eachIgnoreAnnotation(pkg, func(cpos token.Pos, fields []string) {
		if len(fields) == 0 {
			return
		}
		pos := pkg.Fset.Position(cpos)
		byLine := idx[pos.Filename]
		if byLine == nil {
			byLine = map[int]map[string]bool{}
			idx[pos.Filename] = byLine
		}
		names := byLine[pos.Line]
		if names == nil {
			names = map[string]bool{}
			byLine[pos.Line] = names
		}
		names[fields[0]] = true
	})
	return idx
}

// SuppressionDiagnostics enforces the suppression contract over one
// package: every //dsmlint:ignore annotation must name a known analyzer
// and give a reason. Malformed annotations are reported as diagnostics
// from the pseudo-analyzer "ignore" — they cannot themselves be
// suppressed, because a bare annotation silently disabling a check is
// exactly the drift this guards against.
func SuppressionDiagnostics(pkg *loader.Package) []analysis.Diagnostic {
	known := map[string]bool{}
	for _, a := range All {
		known[a.Name] = true
	}
	var diags []analysis.Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, analysis.Diagnostic{
			Pos:      pos,
			Message:  fmt.Sprintf(format, args...),
			Analyzer: "ignore",
		})
	}
	eachIgnoreAnnotation(pkg, func(pos token.Pos, fields []string) {
		switch {
		case len(fields) == 0:
			report(pos, "dsmlint:ignore names no analyzer: use //dsmlint:ignore <analyzer> <reason>")
		case !known[fields[0]]:
			report(pos, "dsmlint:ignore names unknown analyzer %q", fields[0])
		case len(fields) < 2:
			report(pos, "dsmlint:ignore %s gives no reason: every suppression must say why the pattern is safe", fields[0])
		}
	})
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags
}

// ignored reports whether an annotation for analyzer name covers pos:
// the annotation may sit on the diagnostic's line or the line above.
func (idx ignoreIndex) ignored(fset *token.FileSet, name string, pos token.Pos) bool {
	p := fset.Position(pos)
	byLine, ok := idx[p.Filename]
	if !ok {
		return false
	}
	for _, line := range []int{p.Line, p.Line - 1} {
		if names, ok := byLine[line]; ok && names[name] {
			return true
		}
	}
	return false
}
