package consensus

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
)

// TestGoldenBytes pins the exact encoding of the durable slot and the
// snapshot blob (the state image every append carries). A slot survives
// a restart and the blob travels between replicas, so any change to
// these bytes is a format change.
func TestGoldenBytes(t *testing.T) {
	snap := encodeSnap([]int32{0, 2}, []byte{9, 8, 7})
	d := &durable{
		term:     7,
		votedFor: 2,
		slotTerm: 6,
		version:  40,
		state:    snap,
	}
	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"snapshot blob", snap, "" +
			"02000000" + "00000000" + "02000000" + // voters
			"03000000" + "090807"}, // app image
		{"slot", encodeSlot(d), "" +
			"0700000000000000" + "02000000" + // term, vote
			"0600000000000000" + "2800000000000000" + // slot term, version
			"13000000" + "02000000000000000200000003000000090807" + // state: the snapshot blob
			"f8332182"}, // CRC32
	} {
		want, _ := hex.DecodeString(tc.want)
		if !bytes.Equal(tc.got, want) {
			t.Errorf("%s encodes as\n%x\nwant\n%x", tc.name, tc.got, want)
		}
	}

	voters, app, err := decodeSnap(snap)
	if err != nil || !reflect.DeepEqual(voters, []int32{0, 2}) || !bytes.Equal(app, []byte{9, 8, 7}) {
		t.Errorf("snapshot blob decodes as %v, %v, %v", voters, app, err)
	}
	got, err := decodeSlot(encodeSlot(d))
	if err != nil || !reflect.DeepEqual(&got, d) {
		t.Errorf("slot decodes as %+v, %v; want %+v", got, err, d)
	}
}
