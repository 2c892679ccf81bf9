package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"lrcdsm/internal/page"
)

// sampleMsgs returns one representative message per kind, with every
// optional field of that kind populated.
func sampleMsgs() []*Msg {
	diffs := []Diff{
		{Writer: 1, Index: 3, D: page.Diff{Page: 7, Runs: []page.Run{
			{Off: 0, Words: []uint64{1, 2, 3}},
			{Off: 200, Words: []uint64{0xdeadbeef}},
		}}},
		{Writer: 2, Index: 1, D: page.Diff{Page: 9}},
	}
	notices := []Notice{
		{Writer: 0, Index: 4, Pages: []int32{1, 2, 3}},
		{Writer: 3, Index: 1, Pages: nil},
	}
	// Every interval of writers 0 and 2 a requester at time zero lacks.
	run := []Notice{
		{Writer: 0, Index: 1, Pages: []int32{0}}, {Writer: 0, Index: 2, Pages: []int32{0}},
		{Writer: 0, Index: 3, Pages: []int32{0, 5}}, {Writer: 0, Index: 4, Pages: []int32{0}},
		{Writer: 0, Index: 5, Pages: []int32{0}},
		{Writer: 2, Index: 1, Pages: []int32{5}}, {Writer: 2, Index: 2, Pages: nil},
	}
	ival := &Interval{Writer: 2, Index: 5, VT: []int32{1, 0, 5, 2}, Pages: []int32{4, 8}}
	return []*Msg{
		{Kind: KPageReq, From: 1, Token: 42, Page: 17, Need: []int32{0, 3, 0, 1}},
		{Kind: KPageReply, From: 0, Token: 42, Page: 17, VT: []int32{3, 1, 0, 9}, Data: bytes.Repeat([]byte{0xab}, 4096)},
		{Kind: KDiffReq, From: 2, Token: 7, Page: 5, VT: []int32{0, 0, 2, 0}, Need: []int32{4, 0, 2, 0}},
		{Kind: KDiffReply, From: 0, Token: 7, Page: 5, VT: []int32{1, 2, 3, 4}, Diffs: diffs},
		{Kind: KDiffReply, From: 0, Token: 8, Page: 5, VT: []int32{1, 2, 3, 4}, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Kind: KWriteNotices, From: 1, Token: 9, Epoch: 1, Episode: 6, Diffs: diffs, Interval: ival},
		{Kind: KWriteNotices, From: 2, Token: 10, Epoch: 1, Episode: 6, Interval: ival}, // no diffs homed here
		{Kind: KAck, From: 0, Token: 9},
		{Kind: KAck, From: 0, Acks: []int64{9, 10, 14}}, // standalone flush acks
		{Kind: KLockGrant, From: 0, Token: 12, Lock: 12, VT: []int32{5, 5, 5, 5}, Notices: notices, Acks: []int64{9}},
		{Kind: KLockReq, From: 3, Token: 10, Lock: 12, VT: []int32{0, 1, 2, 3}, Attempt: 2},
		{Kind: KLockGrant, From: 0, Token: 10, Lock: 12, VT: []int32{5, 5, 5, 5}, Notices: notices, Diffs: diffs},
		{Kind: KLockGrant, From: 1, Token: 11, Lock: 3, VT: []int32{5, 5, 5, 5}}, // nothing missing
		{Kind: KBarArrive, From: 2, Token: 13, Barrier: 1, Episode: 7, VT: []int32{1, 1, 1, 1}, Notices: notices, Interval: ival},
		{Kind: KBarArrive, From: 3, Token: 14, Barrier: 0, Episode: 8, VT: []int32{1, 1, 1, 2}}, // no interval, leaf
		{Kind: KBarDepart, From: 0, Token: 13, Barrier: 1, Episode: 4, VT: []int32{2, 2, 2, 2}, Notices: notices},
		{Kind: KAppendAck, From: 2, Epoch: 3, Term: 6, LogIndex: 14}, // a learner's heartbeat ack
		{Kind: KAbort, From: 0, Term: 7, Err: "manager: node 3 silent for 2s (pending: barrier 1)"},
		{Kind: KJoinReq, From: 3, Token: 1, Epoch: 2, Attempt: 1},
		{Kind: KJoinGrant, From: 0, Token: 1, Epoch: 2, Episode: 4, VT: []int32{4, 2, 3, 4}},
		{Kind: KJoinGrant, From: 0, Token: 1, Epoch: 2, Episode: 4}, // no replica at the leader
		{Kind: KSnapReq, From: 3, Token: 2, Epoch: 2, Episode: 4, Page: 7, Attempt: 1},
		{Kind: KPageReply, From: 0, Token: 2, Epoch: 2, Page: 7, VT: []int32{2, 0, 1, 4}, Data: bytes.Repeat([]byte{0x5a}, 256)}, // a pulled page
		{Kind: KSnapPush, From: 1, Epoch: 1, Episode: 4, Page: 9, VT: []int32{1, 3, 0, 0}, Data: []byte{9, 8, 7}},
		{Kind: KResume, From: 3, Token: 3, Epoch: 2},
		{Kind: KCkptDone, From: 1, Token: 6, Epoch: 1, Episode: 4},
		{Kind: KLockForward, From: 0, Token: 21, Epoch: 2, Lock: 12, ReqFrom: 3, VT: []int32{0, 1, 2, 3}},
		{Kind: KBarRelease, From: 0, Token: 0, Epoch: 1, Barrier: 1, Episode: 9, VT: []int32{3, 3, 3, 3}, Notices: notices},
		{Kind: KLockGrant, From: 1, Token: 30, Epoch: 1, Lock: 0, VT: []int32{5, 0, 2, 0}, Notices: run}, // a far-behind requester's grant
		{Kind: KBarRelease, From: 0, Epoch: 1, Barrier: 0, Episode: 10, VT: []int32{3, 3, 3, 3}},         // nobody wrote
		{Kind: KVoteReq, From: 2, Epoch: 1, Term: 5, LogIndex: 12, LogTerm: 4},
		{Kind: KVoteResp, From: 1, Epoch: 1, Term: 5, Flag: 1},
		{Kind: KAppend, From: 0, Epoch: 1, Term: 5, LogIndex: 12, Data: bytes.Repeat([]byte{0xc3}, 64)},
		{Kind: KAppend, From: 0, Epoch: 1, Term: 6, LogIndex: 513, Data: []byte{3, 0, 0, 0}},
		{Kind: KAppend, From: 0, Epoch: 1, Term: 1},                                              // a bootstrap leader before its first version
		{Kind: KBarDepart, From: 0, Token: 15, Barrier: 0, Episode: 10, VT: []int32{3, 3, 3, 3}}, // nobody wrote
		{Kind: KPageReq, From: 1, Token: 43, Page: 2},                                            // a first fetch that needs no version
		{Kind: KAppendAck, From: 2, Epoch: 1, Term: 5},                                           // no version of this term yet
		{Kind: KNotLeader, From: 2, Token: 31, Epoch: 1, Term: 5, Leader: 1},
		{Kind: KNotLeader, From: 1, Token: 33, Epoch: 1, Term: 6, Leader: -1}, // election unsettled
		{Kind: KConfChange, From: 3, Token: 40, Epoch: 2, Flag: 1, ReqFrom: 4, Attempt: 1},
		{Kind: KConfAck, From: 0, Token: 40, Epoch: 2, Flag: 1},
		{Kind: KConfAck, From: 0, Token: 41, Epoch: 2, Err: "consensus: a membership change is already pending"},
		{Kind: KSnapSeal, From: 1, Token: 5, Epoch: 1, Episode: 4, Base: 3, VT: []int32{4, 4, 4, 4}, Pages: []int32{9, 11}, Attempt: 1},
		{Kind: KSnapSeal, From: 2, Token: 6, Epoch: 1, Episode: 5, VT: []int32{5, 5, 5, 5}}, // nothing changed, no base
	}
}

// TestRoundTrip encodes and decodes one message of every kind and
// requires structural equality.
func TestRoundTrip(t *testing.T) {
	seen := map[Kind]bool{}
	for _, m := range sampleMsgs() {
		seen[m.Kind] = true
		b := Encode(m)
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("%v: decode: %v", m.Kind, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%v: round trip mismatch:\n got %+v\nwant %+v", m.Kind, got, m)
		}
	}
	for k := Kind(1); k < kindEnd; k++ {
		if !seen[k] {
			t.Errorf("no round-trip sample for kind %v", k)
		}
	}
}

// TestDecodeTruncated decodes every strict prefix of every sample frame:
// each must fail cleanly (or, never, succeed with trailing garbage).
func TestDecodeTruncated(t *testing.T) {
	for _, m := range sampleMsgs() {
		b := Encode(m)
		for i := 0; i < len(b); i++ {
			if _, err := Decode(b[:i]); err == nil {
				t.Fatalf("%v: truncation to %d/%d bytes decoded successfully", m.Kind, i, len(b))
			}
		}
	}
}

// TestDecodeTrailing requires frames with appended garbage to fail.
func TestDecodeTrailing(t *testing.T) {
	for _, m := range sampleMsgs() {
		b := append(Encode(m), 0x00)
		if _, err := Decode(b); err == nil {
			t.Fatalf("%v: frame with trailing byte decoded successfully", m.Kind)
		}
	}
}

// TestDecodeMalformed covers version/kind/count rejections.
func TestDecodeMalformed(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("empty frame decoded")
	}
	if _, err := Decode([]byte{99, byte(KAck), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := Decode([]byte{Version, 0xEE, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("unknown kind accepted")
	}
	// A page reply whose data length claims far more than the frame holds.
	b := Encode(&Msg{Kind: KPageReply, Page: 1, VT: []int32{1}, Data: []byte{1, 2, 3}})
	// Patch the data length field (last 4+3 bytes are len+data).
	b[len(b)-7] = 0xff
	b[len(b)-6] = 0xff
	b[len(b)-5] = 0xff
	b[len(b)-4] = 0x7f
	if _, err := Decode(b); err == nil {
		t.Error("oversized data length accepted")
	}
	if _, err := Decode(make([]byte, MaxFrame+1)); err == nil {
		t.Error("frame above MaxFrame accepted")
	}
}

// TestDecodeRejectsOtherVersions pins the one-version contract: a frame
// stamped with any version byte but Version is rejected, whatever its
// kind and however well-formed the rest of it is — 8, the layout without
// Acks in the header, included.
func TestDecodeRejectsOtherVersions(t *testing.T) {
	for _, m := range sampleMsgs() {
		b := Encode(m)
		for v := 0; v < 256; v++ {
			if v == Version {
				continue
			}
			b[0] = byte(v)
			if _, err := Decode(b); err == nil {
				t.Fatalf("%v: version %d frame accepted", m.Kind, v)
			}
		}
	}
}

// checkOldPeerRefused requires a frame from a peer of an older version v
// to be refused by its version byte alone. Whatever layout follows the
// stamp (a whole frame, any prefix of one, the bare stamp), Decode must
// report the version mismatch instead of parsing the body.
func checkOldPeerRefused(t *testing.T, v byte) {
	t.Helper()
	want := fmt.Sprintf("wire: version %d frame, want %d", v, Version)
	for _, m := range sampleMsgs() {
		b := Encode(m)
		b[0] = v
		for n := 1; n <= len(b); n++ {
			if _, err := Decode(b[:n]); err == nil || err.Error() != want {
				t.Fatalf("%v: %d-byte version-%d frame: got %v, want %q", m.Kind, n, v, err, want)
			}
		}
	}
}

// TestDecodeV1Compat through TestDecodeV8Compat pin what compatibility
// means with one version: a frame from a peer of each earlier version is
// refused by its version byte, never misread as the current layout.
func TestDecodeV1Compat(t *testing.T) { checkOldPeerRefused(t, 1) }
func TestDecodeV2Compat(t *testing.T) { checkOldPeerRefused(t, 2) }
func TestDecodeV3Compat(t *testing.T) { checkOldPeerRefused(t, 3) }
func TestDecodeV4Compat(t *testing.T) { checkOldPeerRefused(t, 4) }
func TestDecodeV5Compat(t *testing.T) { checkOldPeerRefused(t, 5) }
func TestDecodeV6Compat(t *testing.T) { checkOldPeerRefused(t, 6) }
func TestDecodeV7Compat(t *testing.T) { checkOldPeerRefused(t, 7) }
func TestDecodeV8Compat(t *testing.T) { checkOldPeerRefused(t, 8) }

// TestEncodeUnknownKindPanics pins the programming-error contract.
func TestEncodeUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Encode of unknown kind did not panic")
		}
	}()
	Encode(&Msg{Kind: 0xEE})
}
