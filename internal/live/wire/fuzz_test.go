package wire

import (
	"reflect"
	"testing"
)

// FuzzDecode feeds arbitrary frames to Decode. The property is totality:
// Decode must return (msg, nil) or (nil, err) without panicking, and any
// frame it accepts must re-encode to the identical byte string (the
// format has a single canonical encoding per message).
//
// The committed seed corpus under testdata/fuzz/FuzzDecode holds one
// valid frame per message kind plus malformed variants; `go test` always
// runs the corpus, `go test -fuzz=FuzzDecode` explores further.
func FuzzDecode(f *testing.F) {
	for _, m := range sampleMsgs() {
		f.Add(Encode(m))
	}
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Add([]byte{Version, byte(KPageReply), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	// A full-length header whose kind byte is one past the last kind.
	f.Add([]byte{Version, byte(kindEnd), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
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
