package node

import (
	"bytes"
	"reflect"
	"testing"
)

// sampleMstate is a three-node state with every field set: a
// confirmation, a node mid-recovery and a resume point.
func sampleMstate(t testing.TB) *mstate {
	s := newMstate(3)
	for _, b := range [][]byte{
		encodeCkptDone(1, 2),
		encodeReset(2, 2),
	} {
		c, err := decodeCmd(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.apply(c); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestMstateRejectsMalformed: every truncated prefix of a valid command
// or state image, and the encoding with one byte appended, is an error —
// never a panic and never a silently shorter value. (The empty command
// is the noop, so command truncation starts at the opcode.)
func TestMstateRejectsMalformed(t *testing.T) {
	restore := func(b []byte) error { return newMstate(3).restoreState(b) }
	cmd := func(b []byte) error {
		_, err := decodeCmd(b)
		return err
	}
	for _, tc := range []struct {
		name   string
		valid  []byte
		from   int
		decode func([]byte) error
	}{
		{"ckpt-done", encodeCkptDone(1, 2), 1, cmd},
		{"resume", encodeResume(1), 1, cmd},
		{"reset", encodeReset(2, 2), 1, cmd},
		{"state image", sampleMstate(t).encodeState(), 0, restore},
	} {
		if err := tc.decode(tc.valid); err != nil {
			t.Fatalf("%s: valid encoding rejected: %v", tc.name, err)
		}
		for i := tc.from; i < len(tc.valid); i++ {
			if tc.decode(tc.valid[:i]) == nil {
				t.Errorf("%s truncated to %d of %d bytes decoded", tc.name, i, len(tc.valid))
			}
		}
		if tc.decode(append(append([]byte(nil), tc.valid...), 0)) == nil {
			t.Errorf("%s with a trailing byte decoded", tc.name)
		}
	}
	if err := newMstate(4).restoreState(sampleMstate(t).encodeState()); err == nil {
		t.Error("a 3-node state image restored into a 4-node cluster")
	}
}

// FuzzRestoreState feeds arbitrary bytes to restoreState and decodeCmd.
// The property is totality: each returns a value or an error without
// panicking, and a value it accepts re-encodes to bytes it accepts
// again with the same value. The committed corpus under
// testdata/fuzz/FuzzRestoreState holds a valid state image and a valid
// command and a truncated variant of each.
func FuzzRestoreState(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		s := newMstate(3)
		if err := s.restoreState(b); err == nil {
			img := s.encodeState()
			again := newMstate(3)
			if err := again.restoreState(img); err != nil {
				t.Fatalf("re-encoded state image failed to restore: %v", err)
			}
			if got := again.encodeState(); !bytes.Equal(got, img) {
				t.Fatalf("state image round trip:\n got %x\nwant %x", got, img)
			}
		}
		if c, err := decodeCmd(b); err == nil && c.op != 0 { // the noop has no bytes to re-encode
			again, err := decodeCmd(c.encode())
			if err != nil {
				t.Fatalf("re-encoded command failed to decode: %v", err)
			}
			if !reflect.DeepEqual(c, again) {
				t.Fatalf("command round trip: got %+v, want %+v", again, c)
			}
		}
	})
}
