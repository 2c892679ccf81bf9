package consensus

import (
	"bytes"
	"hash/crc32"
	"reflect"
	"testing"

	"lrcdsm/internal/live/codec"
)

func sampleDurable() *durable {
	return &durable{
		term:     3,
		votedFor: 1,
		slotTerm: 2,
		version:  12,
		state:    encodeSnap([]int32{0, 1, 2}, []byte("state")),
	}
}

// seal appends the slot checksum to body, so a malformed body reaches
// the field decoder instead of failing the CRC.
func seal(body []byte) []byte {
	w := codec.Writer{B: append([]byte(nil), body...)}
	w.U32(crc32.ChecksumIEEE(body))
	return w.B
}

// TestDecodersRejectMalformed: every truncated prefix of a valid
// encoding, and the encoding with one byte appended, is an error —
// never a panic and never a silently shorter value.
func TestDecodersRejectMalformed(t *testing.T) {
	slot := encodeSlot(sampleDurable())
	for _, tc := range []struct {
		name   string
		valid  []byte
		decode func([]byte) error
	}{
		{"slot", slot, func(b []byte) error {
			_, err := decodeSlot(b)
			return err
		}},
		{"slot body under a valid checksum", slot[:len(slot)-4], func(b []byte) error {
			_, err := decodeSlot(seal(b))
			return err
		}},
		{"snapshot blob", encodeSnap([]int32{0, 2}, []byte{9, 8, 7}), func(b []byte) error {
			_, _, err := decodeSnap(b)
			return err
		}},
	} {
		if err := tc.decode(tc.valid); err != nil {
			t.Fatalf("%s: valid encoding rejected: %v", tc.name, err)
		}
		for i := 0; i < len(tc.valid); i++ {
			if tc.decode(tc.valid[:i]) == nil {
				t.Errorf("%s truncated to %d of %d bytes decoded", tc.name, i, len(tc.valid))
			}
		}
		if tc.decode(append(append([]byte(nil), tc.valid...), 0)) == nil {
			t.Errorf("%s with a trailing byte decoded", tc.name)
		}
	}
}

// FuzzDecodeSlot feeds arbitrary bytes to the slot and snapshot-blob
// decoders. The property is totality: each returns a value or an error
// without panicking, and a value it accepts re-encodes to bytes it
// accepts again with the same value. The committed corpus under
// testdata/fuzz/FuzzDecodeSlot holds a valid slot and a valid blob and
// a truncated variant of each (regenerate them with encodeSlot and
// encodeSnap when the slot format changes).
func FuzzDecodeSlot(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		if d, err := decodeSlot(b); err == nil {
			again, err := decodeSlot(encodeSlot(&d))
			if err != nil {
				t.Fatalf("re-encoded slot failed to decode: %v", err)
			}
			if !reflect.DeepEqual(d, again) {
				t.Fatalf("slot round trip:\n got %+v\nwant %+v", again, d)
			}
		}
		if voters, app, err := decodeSnap(b); err == nil {
			v2, a2, err := decodeSnap(encodeSnap(voters, app))
			if err != nil {
				t.Fatalf("re-encoded snapshot blob failed to decode: %v", err)
			}
			if !reflect.DeepEqual(voters, v2) || !bytes.Equal(app, a2) {
				t.Fatalf("snapshot blob round trip: got %v %x, want %v %x", v2, a2, voters, app)
			}
		}
	})
}
