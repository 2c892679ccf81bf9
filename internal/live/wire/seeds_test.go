package wire

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestFuzzSeedCompleteness asserts every message kind is named and has
// a sampleMsgs frame, which seeds FuzzDecode whole and truncated
// (sampleSeeds), so a new kind cannot ship unfuzzed: adding a Kind
// constant fails this test until sampleMsgs holds a frame of it.
func TestFuzzSeedCompleteness(t *testing.T) {
	sampled := map[Kind]bool{}
	for _, m := range sampleMsgs() {
		sampled[m.Kind] = true
	}
	for k := Kind(1); k < kindEnd; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("kind %d has no name; kindNames is incomplete", k)
		}
		if !sampled[k] {
			t.Errorf("kind %v has no sampleMsgs frame to seed FuzzDecode with", k)
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
