package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecode feeds arbitrary frames to Decode. The property is totality:
// Decode must return (msg, nil) or (nil, err) without panicking, and any
// frame it accepts must re-encode to the identical byte string (the
// format has a single canonical encoding per message).
//
// The seeds are built from code: every sampleMsgs frame and its
// truncation (sampleSeeds), so a new kind or field is seeded by its
// sample alone, plus the hand-made malformed frames below. The
// committed corpus under testdata/fuzz/FuzzDecode holds older seed
// frames of the same layouts and malformed frames; `go test` always
// runs the seeds and the corpus, `go test -fuzz=FuzzDecode` explores
// further.
func FuzzDecode(f *testing.F) {
	for _, b := range sampleSeeds() {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Add([]byte{Version, byte(KPageReply), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	// A full-length header whose kind byte is one past the last kind.
	f.Add([]byte{Version, byte(kindEnd), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	// Three corruptions of the first sample frame of six layouts: a
	// trailing byte, a newer build's version, and a kind byte that names
	// the next kind's layout.
	for _, k := range []Kind{KPageReply, KDiffReply, KLockGrant, KBarArrive, KAbort, KAppend} {
		b := Encode(firstSample(k))
		f.Add(append(bytes.Clone(b), 0))
		newer := bytes.Clone(b)
		newer[0] = Version + 1
		f.Add(newer)
		relabelled := bytes.Clone(b)
		relabelled[1] = byte(k%(kindEnd-1) + 1)
		f.Add(relabelled)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			if m != nil {
				t.Fatalf("Decode returned both a message and an error: %v", err)
			}
			return
		}
		re := Encode(m)
		m2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("re-encode round trip mismatch:\n got %+v\nwant %+v", m2, m)
		}
	})
}

// sampleSeeds returns every sampleMsgs frame followed by its first half.
func sampleSeeds() [][]byte {
	var out [][]byte
	for _, m := range sampleMsgs() {
		b := Encode(m)
		out = append(out, b, b[:len(b)/2])
	}
	return out
}

// firstSample returns the first of sampleMsgs of kind k.
func firstSample(k Kind) *Msg {
	for _, m := range sampleMsgs() {
		if m.Kind == k {
			return m
		}
	}
	panic("wire: no sample frame of kind " + k.String())
}
