package recover

import (
	"reflect"
	"testing"
)

// FuzzDecodeSnapshot feeds arbitrary bytes to both snapshot decoders.
// The property is totality: each returns a snapshot or an error without
// panicking, and a snapshot it accepts re-encodes to bytes it accepts
// again with the same value. The committed corpus under
// testdata/fuzz/FuzzDecodeSnapshot holds one valid encoding of each
// kind and a truncated variant.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		if s, err := DecodeNode(b); err == nil {
			again, err := DecodeNode(EncodeNode(s))
			if err != nil {
				t.Fatalf("re-encoded node snapshot failed to decode: %v", err)
			}
			if !reflect.DeepEqual(s, again) {
				t.Fatalf("node snapshot round trip:\n got %+v\nwant %+v", again, s)
			}
		}
		if s, err := DecodeManager(b); err == nil {
			again, err := DecodeManager(EncodeManager(s))
			if err != nil {
				t.Fatalf("re-encoded manager snapshot failed to decode: %v", err)
			}
			if !reflect.DeepEqual(s, again) {
				t.Fatalf("manager snapshot round trip:\n got %+v\nwant %+v", again, s)
			}
		}
	})
}
