package recover

import (
	"reflect"
	"testing"
)

// FuzzDecodeSnapshot feeds arbitrary bytes to the snapshot decoder.
// The property is totality: it returns a snapshot or an error without
// panicking, and a snapshot it accepts re-encodes to bytes it accepts
// again with the same value. The committed corpus under
// testdata/fuzz/FuzzDecodeSnapshot holds one valid encoding and a
// truncated variant.
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
	})
}
