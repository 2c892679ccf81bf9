package recover

import (
	"encoding/binary"
	"fmt"
)

// The snapshot files' binary format: a 4-byte magic, a format version,
// then the snapshot fields in little-endian fixed-width encoding (the
// same conventions as the wire codec). Decode is strict and total.
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
	w := swriter{b: make([]byte, 0, nodeSize(s))}
	w.b = append(w.b, nodeMagic...)
	w.u32(codecVersion)
	w.i64(s.Episode)
	w.i32(s.Node)
	w.i32slice(s.VT)
	w.u32(uint32(len(s.Pages)))
	for i := range s.Pages {
		p := &s.Pages[i]
		w.i32(p.Page)
		w.bytes(p.Data)
		w.i32slice(p.HomeVT)
	}
	return w.b
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
	s.Episode = r.i64()
	s.Node = r.i32()
	s.VT = r.i32slice()
	n := r.count(12)
	if n > 0 {
		s.Pages = make([]PageImage, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		var p PageImage
		p.Page = r.i32()
		p.Data = r.bytes()
		p.HomeVT = r.i32slice()
		s.Pages = append(s.Pages, p)
	}
	return s, r.fin()
}

// EncodeManager serializes a manager snapshot.
func EncodeManager(s *ManagerSnapshot) []byte {
	w := swriter{b: make([]byte, 0, 256)}
	w.b = append(w.b, managerMagic...)
	w.u32(codecVersion)
	w.i64(s.Episode)
	w.i32slice(s.VT)
	w.u32(uint32(len(s.LockVT)))
	for _, vt := range s.LockVT {
		if vt == nil {
			w.u8(0)
			continue
		}
		w.u8(1)
		w.i32slice(vt)
	}
	w.u32(uint32(len(s.Log)))
	for _, recs := range s.Log {
		w.u32(uint32(len(recs)))
		for _, rec := range recs {
			w.i32slice(rec.Pages)
		}
	}
	return w.b
}

// DecodeManager parses a manager snapshot.
func DecodeManager(b []byte) (*ManagerSnapshot, error) {
	r, err := newReader(b, managerMagic)
	if err != nil {
		return nil, err
	}
	s := &ManagerSnapshot{}
	s.Episode = r.i64()
	s.VT = r.i32slice()
	nl := r.count(1)
	for i := 0; i < nl && r.err == nil; i++ {
		if r.u8() == 1 {
			s.LockVT = append(s.LockVT, r.i32slice())
		} else {
			s.LockVT = append(s.LockVT, nil)
		}
	}
	nw := r.count(4)
	for w := 0; w < nw && r.err == nil; w++ {
		ni := r.count(4)
		recs := make([]LogRec, 0, ni)
		for i := 0; i < ni && r.err == nil; i++ {
			recs = append(recs, LogRec{Pages: r.i32slice()})
		}
		s.Log = append(s.Log, recs)
	}
	return s, r.fin()
}

// ---- writer ----

type swriter struct{ b []byte }

func (w *swriter) u8(v uint8)   { w.b = append(w.b, v) }
func (w *swriter) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *swriter) i32(v int32)  { w.u32(uint32(v)) }
func (w *swriter) i64(v int64)  { w.b = binary.LittleEndian.AppendUint64(w.b, uint64(v)) }

func (w *swriter) bytes(v []byte) {
	w.u32(uint32(len(v)))
	w.b = append(w.b, v...)
}

func (w *swriter) i32slice(v []int32) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.i32(x)
	}
}

// ---- reader ----

type sreader struct {
	b   []byte
	off int
	err error
}

func newReader(b []byte, magic string) (*sreader, error) {
	if len(b) > MaxSnapshot {
		return nil, fmt.Errorf("recover: snapshot of %d bytes exceeds bound", len(b))
	}
	if len(b) < len(magic)+4 || string(b[:len(magic)]) != magic {
		return nil, fmt.Errorf("recover: bad snapshot magic")
	}
	r := &sreader{b: b, off: len(magic)}
	if v := r.u32(); r.err == nil && v != codecVersion {
		return nil, fmt.Errorf("recover: unknown snapshot version %d", v)
	}
	return r, r.err
}

func (r *sreader) fin() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("recover: %d trailing bytes in snapshot", len(r.b)-r.off)
	}
	return nil
}

func (r *sreader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if len(r.b)-r.off < n {
		r.err = fmt.Errorf("recover: truncated snapshot at offset %d", r.off)
		return false
	}
	return true
}

func (r *sreader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *sreader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *sreader) i32() int32 { return int32(r.u32()) }

func (r *sreader) i64() int64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return int64(v)
}

// count validates an element count against the bytes remaining, assuming
// at least minBytes per element.
func (r *sreader) count(minBytes int) int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if int64(n)*int64(minBytes) > int64(len(r.b)-r.off) {
		r.err = fmt.Errorf("recover: oversized count %d in snapshot", n)
		return 0
	}
	return int(n)
}

// bytes returns a length-prefixed byte string as a sub-slice of the
// input (capacity clipped, so an append by a holder cannot reach the
// bytes behind it).
func (r *sreader) bytes() []byte {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

func (r *sreader) i32slice() []int32 {
	n := r.count(4)
	if r.err != nil || n == 0 {
		return nil
	}
	v := make([]int32, n)
	for i := range v {
		v[i] = r.i32()
	}
	return v
}
