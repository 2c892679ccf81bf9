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
	managerMagic = "LRCM"
	codecVersion = 1
)

// MaxSnapshot bounds the decodable snapshot size, mirroring the wire
// codec's MaxFrame discipline.
const MaxSnapshot = 1 << 30

// EncodeNode serializes a node snapshot into a fresh, exactly sized
// buffer.
func EncodeNode(s *NodeSnapshot) []byte {
	w := newWriter(nodeSize(s), nodeMagic)
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
	r, err := newReader(b, nodeMagic)
	if err != nil {
		return nil, err
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

// EncodeManager serializes a manager snapshot.
func EncodeManager(s *ManagerSnapshot) []byte {
	w := newWriter(256, managerMagic)
	w.I64(s.Episode)
	w.I32s(s.VT)
	w.U32(uint32(len(s.LockVT)))
	for _, vt := range s.LockVT {
		w.Bool(vt != nil)
		if vt != nil {
			w.I32s(vt)
		}
	}
	w.U32(uint32(len(s.Log)))
	for _, recs := range s.Log {
		w.U32(uint32(len(recs)))
		for _, rec := range recs {
			w.I32s(rec.Pages)
		}
	}
	return w.B
}

// DecodeManager parses a manager snapshot.
func DecodeManager(b []byte) (*ManagerSnapshot, error) {
	r, err := newReader(b, managerMagic)
	if err != nil {
		return nil, err
	}
	s := &ManagerSnapshot{}
	s.Episode = r.I64()
	s.VT = r.I32s()
	nl := r.Count(1)
	for i := 0; i < nl && r.Err() == nil; i++ {
		var vt []int32
		if r.Bool() {
			vt = r.I32s()
		}
		s.LockVT = append(s.LockVT, vt)
	}
	nw := r.Count(4)
	for w := 0; w < nw && r.Err() == nil; w++ {
		ni := r.Count(4)
		recs := make([]LogRec, 0, ni)
		for i := 0; i < ni && r.Err() == nil; i++ {
			recs = append(recs, LogRec{Pages: r.I32s()})
		}
		s.Log = append(s.Log, recs)
	}
	return s, r.Done()
}

// newWriter starts an encoding of capacity n with its magic and version.
func newWriter(n int, magic string) codec.Writer {
	w := codec.Writer{B: make([]byte, 0, n)}
	w.B = append(w.B, magic...)
	w.U32(codecVersion)
	return w
}

// newReader checks b's size, magic and version and returns a reader over
// the fields behind them.
func newReader(b []byte, magic string) (codec.Reader, error) {
	if len(b) > MaxSnapshot {
		return codec.Reader{}, fmt.Errorf("recover: snapshot of %d bytes exceeds bound", len(b))
	}
	if len(b) < len(magic) || string(b[:len(magic)]) != magic {
		return codec.Reader{}, fmt.Errorf("recover: bad snapshot magic")
	}
	r := codec.NewReader(b[len(magic):], "recover: snapshot")
	if v := r.U32(); r.Err() == nil && v != codecVersion {
		return r, fmt.Errorf("recover: unknown snapshot version %d", v)
	}
	return r, r.Err()
}
