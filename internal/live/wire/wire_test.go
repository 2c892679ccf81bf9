package wire

import (
	"bytes"
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
	ival := &Interval{Writer: 2, Index: 5, VT: []int32{1, 0, 5, 2}, Pages: []int32{4, 8}}
	entries := []Entry{
		{Term: 2, Cmd: []byte{1, 2, 3, 4}},
		{Term: 3, Cmd: nil},
	}
	return []*Msg{
		{Kind: KHello, From: 3, Token: 1},
		{Kind: KPageReq, From: 1, Token: 42, Page: 17, Need: []int32{0, 3, 0, 1}},
		{Kind: KPageReply, From: 0, Token: 42, Page: 17, VT: []int32{3, 1, 0, 9}, Data: bytes.Repeat([]byte{0xab}, 4096)},
		{Kind: KDiffReq, From: 2, Token: 7, Page: 5, VT: []int32{0, 0, 2, 0}, Need: []int32{4, 0, 2, 0}},
		{Kind: KDiffReply, From: 0, Token: 7, Page: 5, VT: []int32{1, 2, 3, 4}, Diffs: diffs},
		{Kind: KDiffReply, From: 0, Token: 8, Page: 5, VT: []int32{1, 2, 3, 4}, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Kind: KWriteNotices, From: 1, Token: 9, Epoch: 1, Episode: 6, Diffs: diffs, Interval: ival},
		{Kind: KAck, From: 0, Token: 9},
		{Kind: KLockReq, From: 3, Token: 10, Lock: 12, VT: []int32{0, 1, 2, 3}, Attempt: 2},
		{Kind: KLockGrant, From: 0, Token: 10, Lock: 12, VT: []int32{5, 5, 5, 5}, Notices: notices, Diffs: diffs},
		{Kind: KLockRelease, From: 3, Token: 11, Lock: 12, VT: []int32{6, 5, 5, 5}, Interval: ival},
		{Kind: KLockRelease, From: 3, Token: 12, Lock: 0, VT: []int32{6, 5, 5, 5}}, // no interval
		{Kind: KBarArrive, From: 2, Token: 13, Barrier: 1, Episode: 7, VT: []int32{1, 1, 1, 1}, Notices: notices, Interval: ival},
		{Kind: KBarDepart, From: 0, Token: 13, Barrier: 1, Episode: 4, VT: []int32{2, 2, 2, 2}, Notices: notices},
		{Kind: KReleaseAck, From: 0, Token: 11, Lock: 12},
		{Kind: KHeartbeat, From: 2, Epoch: 3},
		{Kind: KAbort, From: 0, Term: 7, Err: "manager: node 3 silent for 2s (pending: barrier 1)"},
		{Kind: KJoinReq, From: 3, Token: 1, Epoch: 2, Incarnation: 1, Episode: -1, Attempt: 1},
		{Kind: KJoinGrant, From: 0, Token: 1, Epoch: 2, Incarnation: 1, Episode: 4, VT: []int32{4, 4, 4, 4}, NChunks: 3},
		{Kind: KSnapReq, From: 3, Token: 2, Epoch: 2, Episode: 4, Chunk: 1},
		{Kind: KSnapChunk, From: 0, Token: 2, Epoch: 2, Episode: 4, Page: 7, Chunk: 1, NChunks: 3, VT: []int32{2, 0, 1, 4}, Data: bytes.Repeat([]byte{0x5a}, 256)},
		{Kind: KSnapPush, From: 1, Token: 5, Epoch: 1, Episode: 4, Page: 9, Chunk: 0, NChunks: 2, VT: []int32{1, 3, 0, 0}, Data: []byte{9, 8, 7}, Attempt: 2},
		{Kind: KResume, From: 3, Token: 3, Epoch: 2, Incarnation: 1, Episode: 4},
		{Kind: KCkptDone, From: 1, Token: 6, Epoch: 1, Episode: 4},
		{Kind: KLockForward, From: 0, Token: 21, Epoch: 2, Lock: 12, ReqFrom: 3, VT: []int32{0, 1, 2, 3}},
		{Kind: KBarRelease, From: 0, Token: 0, Epoch: 1, Barrier: 1, Episode: 9, VT: []int32{3, 3, 3, 3}, Notices: notices},
		{Kind: KLogSegReq, From: 2, Token: 30, Epoch: 1, Lo: 4, Hi: 9, Attempt: 1},
		{Kind: KLogSegResp, From: 1, Token: 30, Epoch: 1, Lo: 4, Hi: 9, Notices: notices},
		{Kind: KVoteReq, From: 2, Epoch: 1, Term: 5, LogIndex: 12, LogTerm: 4},
		{Kind: KVoteResp, From: 1, Epoch: 1, Term: 5, Flag: 1},
		{Kind: KAppend, From: 0, Epoch: 1, Term: 5, LogIndex: 12, LogTerm: 4, Commit: 10, Entries: entries},
		{Kind: KAppend, From: 0, Epoch: 1, Term: 6, LogIndex: 14, LogTerm: 5, Commit: 14}, // pure heartbeat
		{Kind: KAppendAck, From: 2, Epoch: 1, Term: 5, LogIndex: 14, Flag: 1},
		{Kind: KNotLeader, From: 2, Token: 31, Epoch: 1, Term: 5, Leader: 1},
		{Kind: KMgrSnap, From: 0, Token: 32, Epoch: 1, Episode: 9, VT: []int32{3, 3, 3, 3}, Attempt: 1},
		{Kind: KSnapInstall, From: 0, Epoch: 1, Term: 6, LogIndex: 512, LogTerm: 5, Chunk: 1, NChunks: 3, Data: bytes.Repeat([]byte{0xc3}, 64)},
		{Kind: KSnapAck, From: 2, Epoch: 1, Term: 6, LogIndex: 512, Chunk: 2, NChunks: 3, Flag: 1},
		{Kind: KConfChange, From: 3, Token: 40, Epoch: 2, Flag: 1, ReqFrom: 4, Attempt: 1},
		{Kind: KConfAck, From: 0, Token: 40, Epoch: 2, Flag: 1},
		{Kind: KConfAck, From: 0, Token: 41, Epoch: 2, Err: "consensus: a membership change is already pending"},
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
	for k := KHello; k < kindEnd; k++ {
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

// cutV7 removes the v7-gated field (the Need vector version 7 added to
// the data requests) from a full encoding of m, yielding the v6 layout
// of that kind. Need is the last field of both kinds that carry it.
func cutV7(m *Msg, b []byte) []byte {
	if !fields[m.Kind].need7 {
		return b
	}
	return b[:len(b)-4-4*len(m.Need)]
}

// cutV4 removes the v4-gated fields (the episode stamp and aggregated
// notices version 4 added to KBarArrive) from a full encoding of m,
// yielding the v3 layout of that kind. Offsets are computed from the
// kind's field set; only simple pre-v4 kinds carry these flags.
func cutV4(m *Msg, b []byte) []byte {
	fs := fields[m.Kind]
	if !fs.episode4 && !fs.notices4 {
		return b
	}
	off := 18 // version, kind, from, token, epoch
	if fs.attempt {
		off++
	}
	if fs.lock {
		off += 4
	}
	if fs.barrier {
		off += 4
	}
	if fs.episode4 {
		b = append(b[:off], b[off+8:]...)
	}
	if fs.notices4 {
		if fs.vt {
			off += 4 + 4*len(m.VT)
		}
		sz := 4
		for _, n := range m.Notices {
			sz += 12 + 4*len(n.Pages)
		}
		b = append(b[:off], b[off+sz:]...)
	}
	return b
}

// cutV5 removes the v5-gated fields (the fencing Term version 5 added
// to KAbort) from a full encoding of m, yielding the v4 layout of that
// kind. Only simple pre-v5 kinds carry the term5 flag.
func cutV5(m *Msg, b []byte) []byte {
	fs := fields[m.Kind]
	if !fs.term5 {
		return b
	}
	off := 18 // version, kind, from, token, epoch
	if fs.attempt {
		off++
	}
	if fs.incarn {
		off += 4
	}
	if fs.chunk {
		off += 8
	}
	return append(b[:off], b[off+8:]...)
}

// encodeV1 builds a version-1 frame for kinds that existed in v1: the
// same layout as Encode minus the v4/v5-gated fields, the Attempt byte
// version 2 added, and the Epoch word (plus, for flushes, the Episode
// stamp) version 3 added. The v1-v3 cuts sit contiguously after the
// (version, kind, from, token) prefix, so one cut suffices.
func encodeV1(m *Msg) []byte {
	b := cutV4(m, cutV5(m, cutV7(m, Encode(m))))
	b[0] = 1
	fs := fields[m.Kind]
	cut := 4 // Epoch
	if fs.attempt {
		cut++
	}
	if fs.episode3 {
		cut += 8
	}
	return append(b[:14], b[14+cut:]...)
}

// encodeV2 builds a version-2 frame for kinds that existed in v2: the v3
// layout minus the Epoch word and the v3 Episode stamp (Attempt stays).
func encodeV2(m *Msg) []byte {
	b := cutV4(m, cutV5(m, cutV7(m, Encode(m))))
	b[0] = 2
	fs := fields[m.Kind]
	b = append(b[:14], b[18:]...) // Epoch
	if fs.episode3 {
		off := 14
		if fs.attempt {
			off++
		}
		b = append(b[:off], b[off+8:]...)
	}
	return b
}

// encodeV3 builds a version-3 frame for kinds that existed in v3: the
// full layout minus the v4- and v5-gated fields.
func encodeV3(m *Msg) []byte {
	b := cutV4(m, cutV5(m, cutV7(m, Encode(m))))
	b[0] = 3
	return b
}

// encodeV4 builds a version-4 frame for kinds that existed in v4: the
// full layout minus the v5-gated fields.
func encodeV4(m *Msg) []byte {
	b := cutV5(m, cutV7(m, Encode(m)))
	b[0] = 4
	return b
}

// TestDecodeV1Compat checks the versioning contract: a v1 frame of a v1
// kind still decodes (with Attempt zero), while the v2-only kinds are
// rejected when stamped as v1.
func TestDecodeV1Compat(t *testing.T) {
	for _, m := range sampleMsgs() {
		if m.Kind >= firstV2Kind {
			b := Encode(m)
			b[0] = 1
			if _, err := Decode(b); err == nil {
				t.Errorf("%v: v2-only kind accepted in a v1 frame", m.Kind)
			}
			continue
		}
		got, err := Decode(encodeV1(m))
		if err != nil {
			t.Errorf("%v: v1 frame rejected: %v", m.Kind, err)
			continue
		}
		want := *m
		want.Need = nil
		want.Attempt = 0 // v1 frames have no Attempt field
		want.Epoch = 0   // nor an Epoch
		if fields[m.Kind].episode3 || fields[m.Kind].episode4 {
			want.Episode = 0
		}
		if fields[m.Kind].notices4 {
			want.Notices = nil
		}
		if !reflect.DeepEqual(&want, got) {
			t.Errorf("%v: v1 round trip mismatch:\n got %+v\nwant %+v", m.Kind, got, &want)
		}
	}
}

// TestDecodeV2Compat checks the v3 versioning contract: a v2 frame of a
// v2-or-older kind still decodes (with Epoch zero and, for flushes, no
// Episode stamp), while the v3-only recovery kinds are rejected when
// stamped as v2.
func TestDecodeV2Compat(t *testing.T) {
	for _, m := range sampleMsgs() {
		if m.Kind >= firstV3Kind {
			b := Encode(m)
			b[0] = 2
			if _, err := Decode(b); err == nil {
				t.Errorf("%v: v3-only kind accepted in a v2 frame", m.Kind)
			}
			continue
		}
		got, err := Decode(encodeV2(m))
		if err != nil {
			t.Errorf("%v: v2 frame rejected: %v", m.Kind, err)
			continue
		}
		want := *m
		want.Need = nil
		want.Epoch = 0 // v2 frames have no Epoch field
		if fields[m.Kind].episode3 || fields[m.Kind].episode4 {
			want.Episode = 0
		}
		if fields[m.Kind].notices4 {
			want.Notices = nil
		}
		if fields[m.Kind].term5 {
			want.Term = 0
		}
		if !reflect.DeepEqual(&want, got) {
			t.Errorf("%v: v2 round trip mismatch:\n got %+v\nwant %+v", m.Kind, got, &want)
		}
	}
}

// TestDecodeV3Compat checks the v4 versioning contract: a v3 frame of a
// v3-or-older kind still decodes (without the v4 barrier episode stamp
// or aggregated notices), while the v4-only synchronization kinds are
// rejected when stamped as v3.
func TestDecodeV3Compat(t *testing.T) {
	for _, m := range sampleMsgs() {
		if m.Kind >= firstV4Kind {
			b := Encode(m)
			b[0] = 3
			if _, err := Decode(b); err == nil {
				t.Errorf("%v: v4-only kind accepted in a v3 frame", m.Kind)
			}
			continue
		}
		got, err := Decode(encodeV3(m))
		if err != nil {
			t.Errorf("%v: v3 frame rejected: %v", m.Kind, err)
			continue
		}
		want := *m
		want.Need = nil
		if fields[m.Kind].episode4 {
			want.Episode = 0
		}
		if fields[m.Kind].notices4 {
			want.Notices = nil
		}
		if fields[m.Kind].term5 {
			want.Term = 0
		}
		if !reflect.DeepEqual(&want, got) {
			t.Errorf("%v: v3 round trip mismatch:\n got %+v\nwant %+v", m.Kind, got, &want)
		}
	}
}

// TestDecodeV4Compat checks the v5 versioning contract: a v4 frame of a
// v4-or-older kind still decodes (with the fencing Term zero), while
// the v5-only consensus kinds are rejected when stamped as v4.
func TestDecodeV4Compat(t *testing.T) {
	for _, m := range sampleMsgs() {
		if m.Kind >= firstV5Kind {
			b := Encode(m)
			b[0] = 4
			if _, err := Decode(b); err == nil {
				t.Errorf("%v: v5-only kind accepted in a v4 frame", m.Kind)
			}
			continue
		}
		got, err := Decode(encodeV4(m))
		if err != nil {
			t.Errorf("%v: v4 frame rejected: %v", m.Kind, err)
			continue
		}
		want := *m
		want.Need = nil
		if fields[m.Kind].term5 {
			want.Term = 0
		}
		if !reflect.DeepEqual(&want, got) {
			t.Errorf("%v: v4 round trip mismatch:\n got %+v\nwant %+v", m.Kind, got, &want)
		}
	}
}

// encodeV5 builds a version-5 frame for kinds that existed in v5.
// Version 6 added no fields to pre-v6 kinds — only the four long-haul
// control-plane kinds — so the v5 layout is the v6 layout restamped.
func encodeV5(m *Msg) []byte {
	b := cutV7(m, Encode(m))
	b[0] = 5
	return b
}

// TestDecodeV5Compat checks the v6 versioning contract: a v5 frame of a
// v5-or-older kind still decodes unchanged (v6 widened no existing
// kind), while the v6-only snapshot-transfer and membership kinds are
// rejected when stamped as v5.
func TestDecodeV5Compat(t *testing.T) {
	for _, m := range sampleMsgs() {
		if m.Kind >= firstV6Kind {
			b := Encode(m)
			b[0] = 5
			if _, err := Decode(b); err == nil {
				t.Errorf("%v: v6-only kind accepted in a v5 frame", m.Kind)
			}
			continue
		}
		got, err := Decode(encodeV5(m))
		if err != nil {
			t.Errorf("%v: v5 frame rejected: %v", m.Kind, err)
			continue
		}
		want := *m
		want.Need = nil
		if !reflect.DeepEqual(&want, got) {
			t.Errorf("%v: v5 round trip mismatch:\n got %+v\nwant %+v", m.Kind, got, &want)
		}
	}
}

// TestDecodeV6Compat checks the v7 versioning contract: version 7 added
// no kinds, so every kind decodes from a v6 frame — the two data
// requests without their Need vector — and a v6 frame that still carries
// one is rejected as trailing bytes.
func TestDecodeV6Compat(t *testing.T) {
	for _, m := range sampleMsgs() {
		b := cutV7(m, Encode(m))
		b[0] = 6
		got, err := Decode(b)
		if err != nil {
			t.Errorf("%v: v6 frame rejected: %v", m.Kind, err)
			continue
		}
		want := *m
		want.Need = nil
		if !reflect.DeepEqual(&want, got) {
			t.Errorf("%v: v6 round trip mismatch:\n got %+v\nwant %+v", m.Kind, got, &want)
		}
		if fields[m.Kind].need7 {
			full := Encode(m)
			full[0] = 6
			if _, err := Decode(full); err == nil {
				t.Errorf("%v: v7 Need vector accepted in a v6 frame", m.Kind)
			}
		}
	}
}

// TestEncodeUnknownKindPanics pins the programming-error contract.
func TestEncodeUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Encode of unknown kind did not panic")
		}
	}()
	Encode(&Msg{Kind: 0xEE})
}
