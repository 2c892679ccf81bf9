package consensus

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"lrcdsm/internal/live/wire"
)

// TestGoldenBytes pins the exact encoding of the durable slot, the
// snapshot blob and the config-change command. A slot survives a
// restart and the blob and the command travel between replicas, so any
// change to these bytes is a format change.
func TestGoldenBytes(t *testing.T) {
	snap := encodeSnap([]int32{0, 2}, []byte{9, 8, 7})
	d := &durable{
		term:      7,
		votedFor:  2,
		snapIndex: 40,
		snapTerm:  6,
		voters:    []int32{0, 2},
		snapshot:  snap,
		log:       []wire.Entry{{Term: 6, Cmd: []byte{1, 2}}, {Term: 7}},
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
			"2800000000000000" + "0600000000000000" + // snapshot index, term
			"02000000" + "00000000" + "02000000" + // voters
			"13000000" + "02000000000000000200000003000000090807" + // snapshot blob
			"02000000" + // log
			"0600000000000000" + "02000000" + "0102" +
			"0700000000000000" + "00000000" +
			"24a9aee3"}, // CRC32
		{"conf add", encodeConfCmd(true, 3), "c6" + "01" + "03000000"},
		{"conf remove", encodeConfCmd(false, 1), "c6" + "00" + "01000000"},
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
	if add, node, ok := decodeConfCmd(encodeConfCmd(true, 3)); !ok || !add || node != 3 {
		t.Errorf("conf add decodes as %v, %d, %v", add, node, ok)
	}
	if add, node, ok := decodeConfCmd(encodeConfCmd(false, 1)); !ok || add || node != 1 {
		t.Errorf("conf remove decodes as %v, %d, %v", add, node, ok)
	}
}
