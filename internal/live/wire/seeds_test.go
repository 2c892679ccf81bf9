package wire

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestFuzzSeedCompleteness asserts every message kind has a FuzzDecode
// corpus seed and a truncated variant, so a new kind cannot ship
// unfuzzed: adding a Kind constant fails this test until the corpus
// covers it. Seeds are named seed-<kindname>[-<n>] with the truncated
// variant ending in "-truncated".
func TestFuzzSeedCompleteness(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus dir: %v", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	for k := Kind(1); k < kindEnd; k++ {
		kn := k.String()
		if strings.HasPrefix(kn, "kind(") {
			t.Errorf("kind %d has no name; kindNames is incomplete", k)
			continue
		}
		var seed, truncated bool
		for _, name := range names {
			if name == "seed-"+kn || strings.HasPrefix(name, "seed-"+kn+"-") {
				if strings.HasSuffix(name, "-truncated") {
					truncated = true
				} else {
					seed = true
				}
			}
		}
		if !seed {
			t.Errorf("kind %s has no fuzz corpus seed (want %s/seed-%s*)", kn, dir, kn)
		}
		if !truncated {
			t.Errorf("kind %s has no truncated corpus seed (want %s/seed-%s-*-truncated)", kn, dir, kn)
		}
	}
}

// TestCorpusSeedsReencode pins the frame encoding: every committed seed
// that decodes must re-encode to exactly its own bytes, so a codec
// change that moves any field of any kind fails here rather than
// between two nodes of different builds.
func TestCorpusSeedsReencode(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus dir: %v", err)
	}
	decoded := 0
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: not a one-value corpus file", e.Name())
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		m, err := Decode([]byte(s))
		if err != nil {
			continue // a malformed seed
		}
		decoded++
		if got := Encode(m); string(got) != s {
			t.Errorf("%s re-encodes as\n%q\nwant\n%q", e.Name(), got, s)
		}
	}
	if decoded < int(kindEnd)-1 {
		t.Errorf("only %d corpus seeds decode, want at least one per kind (%d)", decoded, kindEnd-1)
	}
}
