// Package codec is the live runtime's one binary field codec: the wire
// frames, the checkpoint files, the consensus slot and the manager's
// replicated state all encode through Writer and decode through Reader.
// Every field is little-endian and fixed-width; byte strings and int32
// slices carry a uint32 length prefix.
//
// Decoding is strict and total. A Reader never panics: the first
// truncated field, oversized count or non-canonical bool sets a sticky
// error, every later read returns a zero value, and Done also rejects
// trailing bytes. Counts are checked against the bytes actually left
// before any slice is sized, so a hostile length cannot drive a huge
// allocation.
package codec

import (
	"encoding/binary"
	"fmt"
)

// Writer appends fields to B. Callers that know the encoded size
// preallocate B's capacity.
type Writer struct{ B []byte }

func (w *Writer) U8(v uint8)   { w.B = append(w.B, v) }
func (w *Writer) U32(v uint32) { w.B = binary.LittleEndian.AppendUint32(w.B, v) }
func (w *Writer) U64(v uint64) { w.B = binary.LittleEndian.AppendUint64(w.B, v) }
func (w *Writer) I32(v int32)  { w.U32(uint32(v)) }
func (w *Writer) I64(v int64)  { w.U64(uint64(v)) }

// Bool writes one byte, 1 or 0.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Bytes writes a length-prefixed byte string.
func (w *Writer) Bytes(v []byte) {
	w.U32(uint32(len(v)))
	w.B = append(w.B, v...)
}

// I32s writes a length-prefixed []int32.
func (w *Writer) I32s(v []int32) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.I32(x)
	}
}

// Reader decodes fields from a byte slice. Its errors start with the
// prefix given to NewReader, which names the format being read.
type Reader struct {
	b      []byte
	off    int
	err    error
	prefix string
}

// NewReader returns a Reader over b whose errors start with prefix.
func NewReader(b []byte, prefix string) Reader { return Reader{b: b, prefix: prefix} }

// Err returns the first error, or nil.
func (r *Reader) Err() error { return r.err }

// Done returns the first error, or an error if any bytes are left.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.b) {
		r.fail("has %d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%s %s", r.prefix, fmt.Sprintf(format, args...))
	}
}

func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if len(r.b)-r.off < n {
		r.fail("truncated: need %d bytes at offset %d of %d", n, r.off, len(r.b))
		return false
	}
	return true
}

func (r *Reader) U8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *Reader) I32() int32 { return int32(r.U32()) }
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Bool reads one byte and fails unless it is 0 or 1.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.fail("bool byte %d at offset %d", v, r.off-1)
	}
	return v == 1
}

// Count reads an element count and checks it against the bytes left,
// assuming each element occupies at least minBytes.
func (r *Reader) Count(minBytes int) int {
	n := r.U32()
	if r.err != nil {
		return 0
	}
	if int64(n)*int64(minBytes) > int64(len(r.b)-r.off) {
		r.fail("count %d is oversized (%d bytes left)", n, len(r.b)-r.off)
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string into a fresh slice (nil
// when empty), so the result outlives the input.
func (r *Reader) Bytes() []byte {
	v := r.View()
	if v == nil {
		return nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// View reads a length-prefixed byte string as a sub-slice of the input
// (nil when empty). Its capacity is clipped, so an append by a holder
// cannot reach the bytes behind it.
func (r *Reader) View() []byte {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// I32s reads a length-prefixed []int32 (nil when empty).
func (r *Reader) I32s() []int32 {
	n := r.Count(4)
	if n == 0 {
		return nil
	}
	v := make([]int32, n)
	for i := range v {
		v[i] = r.I32()
	}
	return v
}
