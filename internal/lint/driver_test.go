package lint_test

import (
	"testing"

	"lrcdsm/internal/lint"
)

func TestAnalyzersForScoping(t *testing.T) {
	names := func(pkgPath string) map[string]bool {
		m := map[string]bool{}
		for _, a := range lint.AnalyzersFor(pkgPath) {
			m[a.Name] = true
		}
		return m
	}

	sim := names("lrcdsm/internal/core")
	for _, want := range []string{"mapiter", "simclock", "poolsafe"} {
		if !sim[want] {
			t.Errorf("internal/core: analyzer %s missing", want)
		}
	}

	cmd := names("lrcdsm/cmd/experiments")
	if cmd["mapiter"] || cmd["simclock"] {
		t.Errorf("cmd/experiments: determinism analyzers should not apply, got %v", cmd)
	}
	if !cmd["poolsafe"] {
		t.Errorf("cmd/experiments: poolsafe should apply everywhere")
	}

	// The live runtime uses real time and real concurrency; the
	// determinism analyzers must not fire there.
	for _, pkg := range []string{
		"lrcdsm/internal/live",
		"lrcdsm/internal/live/node",
		"lrcdsm/internal/live/transport",
		"lrcdsm/internal/live/wire",
		"lrcdsm/cmd/dsmd",
	} {
		got := names(pkg)
		if got["mapiter"] || got["simclock"] {
			t.Errorf("%s: determinism analyzers should not apply, got %v", pkg, got)
		}
		if !got["poolsafe"] {
			t.Errorf("%s: poolsafe should still apply", pkg)
		}
		if lint.InDeterminismScope(pkg) {
			t.Errorf("%s should be outside determinism scope", pkg)
		}
	}

	if !lint.InDeterminismScope("lrcdsm/internal/sim") {
		t.Errorf("internal/sim should be in determinism scope")
	}
	if lint.InDeterminismScope("lrcdsm/internal/simulator") {
		t.Errorf("prefix match must respect path boundaries")
	}

	// The live-runtime concurrency analyzers apply under internal/live
	// and nowhere else: the simulator is single-threaded by construction,
	// so a "mutex held across a send" cannot happen there, and flagging
	// it would only breed suppressions.
	for _, pkg := range []string{
		"lrcdsm/internal/live",
		"lrcdsm/internal/live/node",
		"lrcdsm/internal/live/transport",
		"lrcdsm/internal/live/wire",
	} {
		got := names(pkg)
		if !got["lockheld"] || !got["vtalias"] {
			t.Errorf("%s: live concurrency analyzers should apply, got %v", pkg, got)
		}
		if !lint.InLiveScope(pkg) {
			t.Errorf("%s should be in live scope", pkg)
		}
	}
	for _, pkg := range []string{"lrcdsm/internal/core", "lrcdsm/cmd/dsmd", "lrcdsm/internal/livery"} {
		got := names(pkg)
		if got["lockheld"] || got["vtalias"] {
			t.Errorf("%s: live concurrency analyzers should not apply, got %v", pkg, got)
		}
	}
}
