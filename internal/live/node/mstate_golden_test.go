package node

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
)

// TestMstateGoldenBytes pins the exact encoding of the three manager
// commands and of the state image. Commands sit in the consensus log
// and the image in its snapshots, so any change to these bytes is a
// format change.
func TestMstateGoldenBytes(t *testing.T) {
	cmds := []struct {
		name string
		b    []byte
		want string
		c    mcmd
	}{
		{"ckpt-done", encodeCkptDone(1, 2),
			"01" + "01000000" + "0200000000000000",
			mcmd{op: opCkptDone, node: 1, episode: 2}},
		{"reset", encodeReset(2, 2),
			"05" + "02000000" + "0200000000000000",
			mcmd{op: opReset, node: 2, episode: 2}},
		{"resume", encodeResume(1),
			"04" + "01000000",
			mcmd{op: opResume, node: 1}},
	}
	s := newMstate(3)
	for _, tc := range cmds {
		want, _ := hex.DecodeString(tc.want)
		if !bytes.Equal(tc.b, want) {
			t.Errorf("%s encodes as %x, want %x", tc.name, tc.b, want)
		}
		c, err := decodeCmd(want)
		if err != nil || !reflect.DeepEqual(c, tc.c) {
			t.Errorf("%s decodes as %+v, %v; want %+v", tc.name, c, err, tc.c)
			continue
		}
		if err := s.apply(c); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}

	img := s.encodeState()
	want, _ := hex.DecodeString("" +
		"03000000" + // nodes
		"0000000000000000" + "0200000000000000" + "0000000000000000" + // confirmed
		"000001" + // recovering
		"0200000000000000") // resume point
	if !bytes.Equal(img, want) {
		t.Errorf("state image encodes as\n%x\nwant\n%x", img, want)
	}
	r := newMstate(3)
	if err := r.restoreState(want); err != nil {
		t.Fatal(err)
	}
	if got := r.encodeState(); !bytes.Equal(got, want) {
		t.Errorf("restored state re-encodes as\n%x\nwant\n%x", got, want)
	}
}

// TestMstateRetiredOpcodes: opcodes 2 and 3 (a flagged episode's merged
// vector time, a join's incarnation) are retired. A log entry carrying
// either, in the shape it used to have, is an unknown command.
func TestMstateRetiredOpcodes(t *testing.T) {
	for _, hexCmd := range []string{
		"02" + "0200000000000000" + "03000000" + "05000000" + "06000000" + "07000000",
		"03" + "02000000" + "09000000",
	} {
		b, _ := hex.DecodeString(hexCmd)
		if c, err := decodeCmd(b); err == nil {
			t.Errorf("retired command %s decodes as %+v", hexCmd, c)
		}
		if err := newMstate(3).apply(mcmd{op: b[0]}); err == nil {
			t.Errorf("retired opcode %d applies", b[0])
		}
	}
}
