package recover

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
)

// TestGoldenBytes pins the snapshot files' exact encoding: a DirStore
// written by one build must be readable by the next, so any change to
// these bytes is a format change and needs a new codecVersion.
func TestGoldenBytes(t *testing.T) {
	ns := &NodeSnapshot{
		Episode: 5,
		Node:    1,
		VT:      []int32{2, 0, 3},
		Pages: []PageImage{
			{Page: 4, Data: []byte{0xde, 0xad, 0xbe, 0xef}, HomeVT: []int32{1, 0, -1}},
			{Page: 9},
		},
	}
	for _, tc := range []struct {
		name   string
		got    []byte
		want   string
		decode func([]byte) (any, error)
		value  any
	}{
		{"node", EncodeNode(ns), "" +
			"4c52434e" + "01000000" + // magic, version
			"0500000000000000" + "01000000" + // episode, node
			"03000000" + "02000000" + "00000000" + "03000000" + // VT
			"02000000" + // pages
			"04000000" + "04000000" + "deadbeef" + "03000000" + "01000000" + "00000000" + "ffffffff" +
			"09000000" + "00000000" + "00000000",
			func(b []byte) (any, error) { return DecodeNode(b) }, ns},
	} {
		want, _ := hex.DecodeString(tc.want)
		if !bytes.Equal(tc.got, want) {
			t.Errorf("%s encodes as\n%x\nwant\n%x", tc.name, tc.got, want)
			continue
		}
		v, err := tc.decode(want)
		if err != nil {
			t.Errorf("%s: decoding the golden bytes: %v", tc.name, err)
		} else if !reflect.DeepEqual(v, tc.value) {
			t.Errorf("%s decodes as %+v, want %+v", tc.name, v, tc.value)
		}
	}
}
