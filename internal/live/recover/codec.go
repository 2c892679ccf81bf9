package recover

import (
	"fmt"

	"lrcdsm/internal/live/codec"
)

// The snapshot files' binary format: a 4-byte magic, a format version,
// then the snapshot fields in the live runtime's field codec
// (internal/live/codec, shared with the wire frames). Decode is strict
// and total.
const (
	nodeMagic    = "LRCN"
	codecVersion = 1
)

// MaxSnapshot bounds the decodable snapshot size, mirroring the wire
// codec's MaxFrame discipline.
const MaxSnapshot = 1 << 30

// EncodeNode serializes a node snapshot into a fresh, exactly sized
// buffer.
func EncodeNode(s *NodeSnapshot) []byte {
	w := codec.Writer{B: make([]byte, 0, nodeSize(s))}
	w.B = append(w.B, nodeMagic...)
	w.U32(codecVersion)
	w.I64(s.Episode)
	w.I32(s.Node)
	w.I32s(s.VT)
	w.U32(uint32(len(s.Pages)))
	for i := range s.Pages {
		p := &s.Pages[i]
		w.I32(p.Page)
		w.Bytes(p.Data)
		w.I32s(p.HomeVT)
	}
	return w.B
}

// nodeSize is the exact length of s's encoding.
func nodeSize(s *NodeSnapshot) int {
	n := len(nodeMagic) + 4 + 8 + 4 + 4 + 4*len(s.VT) + 4
	for i := range s.Pages {
		n += 4 + 4 + len(s.Pages[i].Data) + 4 + 4*len(s.Pages[i].HomeVT)
	}
	return n
}

// DecodeNode parses a node snapshot, returning an error — never
// panicking — on malformed input. The page contents of the result alias
// b: the caller hands the buffer over with it (decoding one buffer more
// than once is fine, the snapshots share it read-only).
func DecodeNode(b []byte) (*NodeSnapshot, error) {
	if len(b) > MaxSnapshot {
		return nil, fmt.Errorf("recover: snapshot of %d bytes exceeds bound", len(b))
	}
	if len(b) < len(nodeMagic) || string(b[:len(nodeMagic)]) != nodeMagic {
		return nil, fmt.Errorf("recover: bad snapshot magic")
	}
	r := codec.NewReader(b[len(nodeMagic):], "recover: snapshot")
	if v := r.U32(); r.Err() == nil && v != codecVersion {
		return nil, fmt.Errorf("recover: unknown snapshot version %d", v)
	}
	s := &NodeSnapshot{}
	s.Episode = r.I64()
	s.Node = r.I32()
	s.VT = r.I32s()
	n := r.Count(12)
	if n > 0 {
		s.Pages = make([]PageImage, 0, n)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		var p PageImage
		p.Page = r.I32()
		p.Data = r.View()
		p.HomeVT = r.I32s()
		s.Pages = append(s.Pages, p)
	}
	return s, r.Done()
}
