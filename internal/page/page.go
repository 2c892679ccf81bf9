// Package page implements the page-level data machinery of a
// multiple-writer software DSM: page buffers, write twins, and run-length
// encoded word diffs.
//
// A twin is a copy of a page taken at the first write in an interval. At the
// end of the interval the twin is compared against the current contents to
// produce a diff: a run-length encoding of the modified words. Sending diffs
// instead of whole pages greatly reduces data traffic and lets concurrent
// modifications by multiple writers be merged into a single version
// (Carter et al., SOSP'91; Keleher et al., ISCA'92).
package page

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// ID identifies a shared page.
type ID int32

// WordSize is the diffing granularity in bytes. Diffs compare and transmit
// 8-byte words; the paper's 32-bit machine diffed 4-byte words, which only
// changes constant factors in diff sizes, not protocol behaviour.
const WordSize = 8

// Run is a maximal run of consecutive modified words.
type Run struct {
	Off   int32    // word offset within the page
	Words []uint64 // new values
}

// Diff is the set of words of one page modified during one interval.
type Diff struct {
	Page ID
	Runs []Run
}

// runHeaderBytes is the accounting cost of one run header (offset+length)
// when a diff is transmitted.
const runHeaderBytes = 4

// Twin returns an independent copy of data, to be diffed against later.
func Twin(data []byte) []byte {
	t := make([]byte, len(data))
	copy(t, data)
	return t
}

// twinPools caches page-sized buffers per size class. A write interval
// churns one twin per dirtied page — across a sweep that is millions of
// page-sized allocations the garbage collector otherwise has to chase.
// sync.Pool is safe under the parallel experiment harness, where many
// simulations (all with the same page size) run concurrently. A pool
// holds each buffer's first-byte pointer, not the slice: a pointer goes
// into sync.Pool's interface without a slice-header box, so getting and
// freeing a twin allocates nothing, and idle buffers still go at the
// next GC.
var twinPools sync.Map // int -> *sync.Pool

func twinPool(size int) *sync.Pool {
	if p, ok := twinPools.Load(size); ok {
		return p.(*sync.Pool)
	}
	p, _ := twinPools.LoadOrStore(size, &sync.Pool{
		New: func() any { return unsafe.SliceData(make([]byte, size)) },
	})
	return p.(*sync.Pool)
}

// GetTwin returns a pooled buffer of size bytes with unspecified
// contents; the caller owns it until FreeTwin. A partial twin fills only
// the regions it saves (see MakeDiffMasked).
func GetTwin(size int) Buf {
	b := unsafe.Slice(twinPool(size).Get().(*byte), size)
	return b //dsmlint:ignore poolsafe ownership transfers to the caller until FreeTwin
}

// NewTwin returns a copy of data backed by a pooled buffer. The caller owns
// it until FreeTwin; pooled contents are fully overwritten by the copy.
func NewTwin(data []byte) Buf {
	b := GetTwin(len(data))
	copy(b, data)
	return b
}

// FreeTwin recycles a twin obtained from GetTwin or NewTwin. The buffer
// must not be referenced afterwards (MakeDiff copies modified words out,
// so diffs never alias their twin).
func FreeTwin(b Buf) {
	if len(b) > 0 {
		twinPool(len(b)).Put(unsafe.SliceData(b))
	}
}

// A write mask divides a page into R = min(64, words) regions, one bit
// each: 64-byte regions on a 4 KB page, one word each on a page of fewer
// than 64 words. When R does not divide the word count, the last region
// takes the remainder. A writer that knows which regions it wrote twins
// and diffs only those (MakeDiffMasked, CopyRegions).

// Full is the mask of every region, whatever the page size.
const Full = ^uint64(0)

// regions returns R and the words of every region but the last of a page
// of size bytes.
func regions(size int) (r, rw int) {
	r = min(size/WordSize, 64)
	if r == 0 {
		return 0, 0
	}
	return r, size / WordSize / r
}

// Region returns the mask bit of the region holding byte offset off of a
// page of size bytes.
func Region(size, off int) uint64 {
	r, rw := regions(size)
	return 1 << min(off/WordSize/rw, r-1)
}

// clip drops the bits of mask past the last region of a page of size
// bytes.
func clip(size int, mask uint64) uint64 {
	if r, _ := regions(size); r < 64 {
		mask &= 1<<r - 1
	}
	return mask
}

// extent returns the byte range [lo, hi) of the lowest run of adjacent
// regions set in mask (non-zero, clipped to the page), and mask with that
// run cleared.
func extent(size int, mask uint64) (lo, hi int, rest uint64) {
	r, rw := regions(size)
	a := bits.TrailingZeros64(mask)
	b := a + bits.TrailingZeros64(^(mask >> a))
	if b < 64 {
		rest = mask &^ (1<<b - 1)
	}
	lo, hi = a*rw*WordSize, b*rw*WordSize
	if b >= r {
		hi = size
	}
	return lo, hi, rest
}

// CopyRegions copies the regions of mask from the page src to dst, as
// much of them as fits, with one copy per run of adjacent regions.
func CopyRegions(dst, src []byte, mask uint64) {
	for m := clip(len(src), mask); m != 0; {
		var lo, hi int
		lo, hi, m = extent(len(src), m)
		if lo >= len(dst) {
			return
		}
		copy(dst[lo:], src[lo:hi])
	}
}

// chunkBytes is the fast-skip granularity of MakeDiff: a cache-line-sized
// block compared with eight unrolled word loads before falling back to
// word-granularity run detection. Unrolled compares beat bytes.Equal for
// this fixed tiny size — no call into memequal, and a mismatch in the
// first words exits immediately.
const chunkBytes = 64

const chunkWords = chunkBytes / WordSize

// diffScratch is reusable working storage for MakeDiff: modified words and
// packed (start, length) run spans accumulate here during the scan, so in
// steady state a diff performs exactly two allocations (the exact-size word
// array and Run headers) no matter how fragmented the modifications are.
type diffScratch struct {
	vals  []uint64
	spans []int64
}

var diffScratchPool = sync.Pool{New: func() any { return new(diffScratch) }}

// MakeDiff computes the run-length encoded difference between twin (the
// page contents at the start of the interval) and cur (the contents now).
// Both must have the same length, a multiple of WordSize.
func MakeDiff(id ID, twin, cur []byte) Diff { return MakeDiffMasked(id, twin, cur, Full) }

// MakeDiffMasked is MakeDiff over the regions of mask alone: twin need
// hold the start-of-interval bytes of those regions only, and the
// interval's writes must all lie inside them. Each run of adjacent set
// regions is scanned as one extent, so a run of modified words crossing
// a region boundary stays one run, and the diff is byte for byte the
// full scan's whenever the regions outside mask are unmodified.
func MakeDiffMasked(id ID, twin, cur []byte, mask uint64) Diff {
	if len(twin) != len(cur) {
		panic(fmt.Sprintf("page: MakeDiff length mismatch %d != %d", len(twin), len(cur)))
	}
	if len(cur)%WordSize != 0 {
		panic(fmt.Sprintf("page: size %d not a multiple of word size", len(cur)))
	}
	d := Diff{Page: id}
	sc := diffScratchPool.Get().(*diffScratch)
	vals, spans := sc.vals[:0], sc.spans[:0]
	for m := clip(len(cur), mask); m != 0; {
		var lo, hi int
		lo, hi, m = extent(len(cur), m)
		vals, spans = scanRuns(twin, cur, lo/WordSize, hi/WordSize, vals, spans)
	}
	if len(spans) > 0 {
		out := make([]uint64, len(vals))
		copy(out, vals)
		d.Runs = make([]Run, len(spans))
		pos := 0
		for k, sp := range spans {
			n := int(int32(sp))
			d.Runs[k] = Run{Off: int32(sp >> 32), Words: out[pos : pos+n : pos+n]}
			pos += n
		}
	}
	sc.vals, sc.spans = vals, spans
	diffScratchPool.Put(sc)
	return d
}

// scanRuns appends the modified words of words [i, end) to vals and
// their runs, packed as (start, length), to spans.
func scanRuns(twin, cur []byte, i, end int, vals []uint64, spans []int64) ([]uint64, []int64) {
	for i < end {
		off := i * WordSize
		// Fast-skip unmodified cache-line-sized regions (the chunkEq
		// compare, spelled out because the call is beyond the inlining
		// budget). Skipping equal words early never moves a run boundary,
		// so diffs stay byte-identical to the plain word-by-word scan.
		if i+chunkWords <= end {
			t, c := twin[off:off+chunkBytes], cur[off:off+chunkBytes]
			if binary.LittleEndian.Uint64(t) == binary.LittleEndian.Uint64(c) &&
				binary.LittleEndian.Uint64(t[8:]) == binary.LittleEndian.Uint64(c[8:]) &&
				binary.LittleEndian.Uint64(t[16:]) == binary.LittleEndian.Uint64(c[16:]) &&
				binary.LittleEndian.Uint64(t[24:]) == binary.LittleEndian.Uint64(c[24:]) &&
				binary.LittleEndian.Uint64(t[32:]) == binary.LittleEndian.Uint64(c[32:]) &&
				binary.LittleEndian.Uint64(t[40:]) == binary.LittleEndian.Uint64(c[40:]) &&
				binary.LittleEndian.Uint64(t[48:]) == binary.LittleEndian.Uint64(c[48:]) &&
				binary.LittleEndian.Uint64(t[56:]) == binary.LittleEndian.Uint64(c[56:]) {
				i += chunkWords
				continue
			}
		}
		if wordEq(twin[off:off+WordSize], cur[off:off+WordSize]) {
			i++
			continue
		}
		// start of a run
		start := i
		for i < end {
			o := i * WordSize
			if wordEq(twin[o:o+WordSize], cur[o:o+WordSize]) {
				break
			}
			vals = append(vals, binary.LittleEndian.Uint64(cur[o:]))
			i++
		}
		spans = append(spans, int64(start)<<32|int64(i-start))
	}
	return vals, spans
}

func wordEq(a, b []byte) bool {
	return binary.LittleEndian.Uint64(a) == binary.LittleEndian.Uint64(b)
}

// Apply writes the diff's runs into dst, which must be at least as large as
// the diffed page.
func (d Diff) Apply(dst []byte) {
	for _, r := range d.Runs {
		for i, w := range r.Words {
			off := (int(r.Off) + i) * WordSize
			binary.LittleEndian.PutUint64(dst[off:], w)
		}
	}
}

// ApplyAtomic is Apply with every word stored by StoreU64, for the one
// destination a lock-free reader may be loading from concurrently (the
// live home's resident copy; see internal/live/node). dst must be
// 8-byte aligned.
func (d Diff) ApplyAtomic(dst Buf) {
	for _, r := range d.Runs {
		for i, w := range r.Words {
			dst.StoreU64((int(r.Off)+i)*WordSize, w)
		}
	}
}

// Empty reports whether the diff carries no modified words.
func (d Diff) Empty() bool { return len(d.Runs) == 0 }

// WordCount returns the number of modified words carried.
func (d Diff) WordCount() int {
	n := 0
	for _, r := range d.Runs {
		n += len(r.Words)
	}
	return n
}

// SizeBytes returns the transmitted payload size of the diff: the modified
// words plus a small per-run header. Protocol-specific consistency
// information is deliberately not counted, matching the paper's accounting
// ("only the actual shared data moved by the protocols is included in
// message lengths").
func (d Diff) SizeBytes() int {
	return d.WordCount()*WordSize + len(d.Runs)*runHeaderBytes
}

// Buf is a page-sized buffer with typed word accessors.
type Buf []byte

// NewBuf returns a zeroed page buffer of the given size.
func NewBuf(size int) Buf { return make(Buf, size) }

// U64 reads the 8-byte word at byte offset off.
func (b Buf) U64(off int) uint64 { return binary.LittleEndian.Uint64(b[off:]) }

// PutU64 stores an 8-byte word at byte offset off.
func (b Buf) PutU64(off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }

// hostLittleEndian lets the atomic word accessors agree with U64/PutU64
// (binary.LittleEndian) on any host: a native-order word is byte-swapped
// on big-endian machines.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// word holds the only unsafe cast: the 8-byte word at byte
// offset off as a *uint64 for sync/atomic. off must be a multiple of 8
// (buffers from NewBuf and NewTwin start 8-byte aligned, as every
// allocated slice does), and the slice index keeps it in bounds.
func (b Buf) word(off int) *uint64 { return (*uint64)(unsafe.Pointer(&b[off : off+WordSize][0])) }

// LoadU64 is U64 as one atomic load: the value is never torn against a
// concurrent StoreU64 of the same word, and the race detector treats the
// pair as synchronized. off must be a multiple of 8.
func (b Buf) LoadU64(off int) uint64 {
	v := atomic.LoadUint64(b.word(off))
	if !hostLittleEndian {
		v = bits.ReverseBytes64(v)
	}
	return v
}

// StoreU64 is PutU64 as one atomic store (see LoadU64).
func (b Buf) StoreU64(off int, v uint64) {
	if !hostLittleEndian {
		v = bits.ReverseBytes64(v)
	}
	atomic.StoreUint64(b.word(off), v)
}

// F64 reads a float64 at byte offset off.
func (b Buf) F64(off int) float64 { return math.Float64frombits(b.U64(off)) }

// PutF64 stores a float64 at byte offset off.
func (b Buf) PutF64(off int, v float64) { b.PutU64(off, math.Float64bits(v)) }
