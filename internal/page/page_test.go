package page

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDiffEmptyWhenUnchanged(t *testing.T) {
	cur := NewBuf(128)
	for i := 0; i < 128; i++ {
		cur[i] = byte(i)
	}
	twin := Twin(cur)
	d := MakeDiff(1, twin, cur)
	if !d.Empty() {
		t.Fatalf("diff of identical pages not empty: %+v", d)
	}
	if d.SizeBytes() != 0 {
		t.Errorf("SizeBytes = %d, want 0", d.SizeBytes())
	}
}

func TestDiffSingleWord(t *testing.T) {
	cur := NewBuf(256)
	twin := Twin(cur)
	cur.PutU64(64, 0xdeadbeef)
	d := MakeDiff(3, twin, cur)
	if len(d.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(d.Runs))
	}
	if d.Runs[0].Off != 8 || len(d.Runs[0].Words) != 1 {
		t.Fatalf("run = %+v", d.Runs[0])
	}
	if d.WordCount() != 1 {
		t.Errorf("WordCount = %d", d.WordCount())
	}
	if d.SizeBytes() != WordSize+runHeaderBytes {
		t.Errorf("SizeBytes = %d", d.SizeBytes())
	}
}

func TestDiffCoalescesAdjacentWords(t *testing.T) {
	cur := NewBuf(256)
	twin := Twin(cur)
	cur.PutU64(0, 1)
	cur.PutU64(8, 2)
	cur.PutU64(16, 3)
	cur.PutU64(80, 9)
	d := MakeDiff(0, twin, cur)
	if len(d.Runs) != 2 {
		t.Fatalf("runs = %d, want 2 (%+v)", len(d.Runs), d.Runs)
	}
	if d.Runs[0].Off != 0 || len(d.Runs[0].Words) != 3 {
		t.Errorf("first run = %+v", d.Runs[0])
	}
	if d.Runs[1].Off != 10 || len(d.Runs[1].Words) != 1 {
		t.Errorf("second run = %+v", d.Runs[1])
	}
}

func TestApplyReconstructs(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	orig := NewBuf(512)
	r.Read(orig)
	twin := Buf(Twin(orig))
	cur := Buf(Twin(orig))
	for i := 0; i < 20; i++ {
		cur.PutU64(r.Intn(64)*8, r.Uint64())
	}
	d := MakeDiff(7, twin, cur)
	got := Buf(Twin(orig))
	d.Apply(got)
	if !bytes.Equal(got, cur) {
		t.Fatalf("apply(diff) did not reconstruct modified page")
	}
}

func TestDisjointDiffsCommute(t *testing.T) {
	base := NewBuf(256)
	a := Buf(Twin(base))
	b := Buf(Twin(base))
	a.PutU64(0, 11)
	b.PutU64(128, 22)
	da := MakeDiff(0, base, a)
	db := MakeDiff(0, base, b)

	ab := Buf(Twin(base))
	da.Apply(ab)
	db.Apply(ab)
	ba := Buf(Twin(base))
	db.Apply(ba)
	da.Apply(ba)
	if !bytes.Equal(ab, ba) {
		t.Fatal("disjoint diffs do not commute")
	}
}

// ---- edge cases of the chunk-skipping run scanner ----

func TestDiffRunAtPageStart(t *testing.T) {
	cur := NewBuf(4096)
	twin := Twin(cur)
	cur.PutU64(0, 1)
	cur.PutU64(8, 2)
	d := MakeDiff(0, twin, cur)
	if len(d.Runs) != 1 || d.Runs[0].Off != 0 || len(d.Runs[0].Words) != 2 {
		t.Fatalf("run at page start: %+v", d.Runs)
	}
}

func TestDiffRunAtPageEnd(t *testing.T) {
	cur := NewBuf(4096)
	twin := Twin(cur)
	last := len(cur)/WordSize - 1
	cur.PutU64((last-1)*WordSize, 7)
	cur.PutU64(last*WordSize, 8)
	d := MakeDiff(0, twin, cur)
	if len(d.Runs) != 1 || int(d.Runs[0].Off) != last-1 || len(d.Runs[0].Words) != 2 {
		t.Fatalf("run at page end: %+v", d.Runs)
	}
}

func TestDiffWholePageModified(t *testing.T) {
	cur := NewBuf(256)
	twin := Twin(cur)
	for w := 0; w < 32; w++ {
		cur.PutU64(w*WordSize, uint64(w+1))
	}
	d := MakeDiff(0, twin, cur)
	if len(d.Runs) != 1 || d.Runs[0].Off != 0 || len(d.Runs[0].Words) != 32 {
		t.Fatalf("whole-page run: %d runs, first %+v", len(d.Runs), d.Runs[0])
	}
}

// Runs separated by exactly one unmodified word must stay distinct — the
// unmodified word is the run delimiter and must not be transmitted.
func TestDiffAdjacentRunsOneWordGap(t *testing.T) {
	cur := NewBuf(4096)
	twin := Twin(cur)
	cur.PutU64(16*WordSize, 1)
	cur.PutU64(17*WordSize, 2)
	// word 18 unmodified
	cur.PutU64(19*WordSize, 3)
	d := MakeDiff(0, twin, cur)
	if len(d.Runs) != 2 {
		t.Fatalf("runs = %d, want 2 (%+v)", len(d.Runs), d.Runs)
	}
	if d.Runs[0].Off != 16 || len(d.Runs[0].Words) != 2 {
		t.Errorf("first run = %+v", d.Runs[0])
	}
	if d.Runs[1].Off != 19 || len(d.Runs[1].Words) != 1 {
		t.Errorf("second run = %+v", d.Runs[1])
	}
	if d.WordCount() != 3 {
		t.Errorf("WordCount = %d, want 3", d.WordCount())
	}
}

// A run crossing a chunk (cache-line) boundary must not be split by the
// fast-skip path.
func TestDiffRunCrossesChunkBoundary(t *testing.T) {
	cur := NewBuf(4096)
	twin := Twin(cur)
	for w := chunkWords - 2; w < chunkWords+2; w++ {
		cur.PutU64(w*WordSize, uint64(w))
	}
	d := MakeDiff(0, twin, cur)
	if len(d.Runs) != 1 || int(d.Runs[0].Off) != chunkWords-2 || len(d.Runs[0].Words) != 4 {
		t.Fatalf("chunk-straddling run: %+v", d.Runs)
	}
}

// Pages smaller than one chunk must fall back to the word scan.
func TestDiffPageSmallerThanChunk(t *testing.T) {
	cur := NewBuf(2 * WordSize)
	twin := Twin(cur)
	cur.PutU64(WordSize, 9)
	d := MakeDiff(0, twin, cur)
	if len(d.Runs) != 1 || d.Runs[0].Off != 1 || len(d.Runs[0].Words) != 1 {
		t.Fatalf("sub-chunk page: %+v", d.Runs)
	}
}

// Property: MakeDiff + Apply round-trips two completely random page pairs:
// applying diff(a→b) to a copy of a reconstructs b exactly.
func TestQuickDiffRoundTripRandomPairs(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		size := (1 + r.Intn(96)) * WordSize
		a := NewBuf(size)
		b := NewBuf(size)
		r.Read(a)
		r.Read(b)
		d := MakeDiff(0, a, b)
		got := Buf(Twin(a))
		d.Apply(got)
		return bytes.Equal(got, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// ---- pooled twins ----

func TestNewTwinCopiesAndIsIndependent(t *testing.T) {
	data := NewBuf(256)
	for i := range data {
		data[i] = byte(i)
	}
	tw := NewTwin(data)
	if !bytes.Equal(tw, data) {
		t.Fatal("twin does not match its source")
	}
	data.PutU64(0, 0xffff)
	if tw.U64(0) == 0xffff {
		t.Fatal("twin aliases its source")
	}
	FreeTwin(tw)
	// A recycled buffer must still come back fully overwritten.
	tw2 := NewTwin(data)
	if !bytes.Equal(tw2, data) {
		t.Fatal("recycled twin not fully overwritten")
	}
	FreeTwin(tw2)
}

func TestFreeTwinNilIsNoop(t *testing.T) {
	FreeTwin(nil) // must not panic
}

// Diffs must not alias the twin they were computed from: the twin is
// recycled immediately after MakeDiff.
func TestDiffDoesNotAliasTwin(t *testing.T) {
	data := NewBuf(256)
	tw := NewTwin(data)
	cur := Buf(Twin(data))
	cur.PutU64(64, 42)
	d := MakeDiff(0, tw, cur)
	FreeTwin(tw)
	// Scribble over the recycled buffer via a fresh twin of the same size.
	junk := NewBuf(256)
	for i := range junk {
		junk[i] = 0xee
	}
	_ = NewTwin(junk)
	if d.Runs[0].Words[0] != 42 {
		t.Fatalf("diff word clobbered after FreeTwin: %x", d.Runs[0].Words[0])
	}
}

func TestBufAccessors(t *testing.T) {
	b := NewBuf(64)
	b.PutF64(16, 3.25)
	if got := b.F64(16); got != 3.25 {
		t.Errorf("F64 = %v", got)
	}
	b.PutU64(0, 99)
	if got := b.U64(0); got != 99 {
		t.Errorf("U64 = %v", got)
	}
}

func TestMakeDiffLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	MakeDiff(0, make([]byte, 8), make([]byte, 16))
}

// Property: for random modifications, applying the diff to the twin
// reconstructs the current page exactly.
func TestQuickDiffRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		size := (1 + r.Intn(64)) * WordSize
		base := NewBuf(size)
		r.Read(base)
		cur := Buf(Twin(base))
		for i := 0; i < r.Intn(2*size/WordSize); i++ {
			cur.PutU64(r.Intn(size/WordSize)*WordSize, r.Uint64())
		}
		d := MakeDiff(0, base, cur)
		got := Buf(Twin(base))
		d.Apply(got)
		return bytes.Equal(got, cur)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: diff size is monotone — it never exceeds page size plus headers
// and is zero only for identical pages.
func TestQuickDiffSizeBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		size := (1 + r.Intn(64)) * WordSize
		base := NewBuf(size)
		r.Read(base)
		cur := Buf(Twin(base))
		n := r.Intn(size / WordSize)
		for i := 0; i < n; i++ {
			cur.PutU64(r.Intn(size/WordSize)*WordSize, r.Uint64())
		}
		d := MakeDiff(0, base, cur)
		if bytes.Equal(base, cur) != d.Empty() {
			return false
		}
		maxWords := size / WordSize
		return d.WordCount() <= maxWords &&
			d.SizeBytes() <= maxWords*WordSize+maxWords*runHeaderBytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The atomic word accessors must agree with U64/PutU64 (little-endian
// byte order) whatever the host's, so the two can be mixed on one page.
func TestAtomicWordMatchesLittleEndian(t *testing.T) {
	b := NewBuf(32)
	for i := range b {
		b[i] = byte(0x10 + i)
	}
	for off := 0; off < len(b); off += WordSize {
		if got, want := b.LoadU64(off), b.U64(off); got != want {
			t.Errorf("LoadU64(%d) = %#x, U64 = %#x", off, got, want)
		}
	}
	if got := b.LoadU64(8); got != 0x1f1e1d1c1b1a1918 {
		t.Errorf("LoadU64(8) = %#x, want bytes 18..1f little-endian", got)
	}
	b.StoreU64(16, 0x0102030405060708)
	if want := []byte{8, 7, 6, 5, 4, 3, 2, 1}; !bytes.Equal(b[16:24], want) {
		t.Errorf("StoreU64 wrote % x, want % x", b[16:24], want)
	}
	if got := b.U64(16); got != 0x0102030405060708 {
		t.Errorf("U64 after StoreU64 = %#x", got)
	}
}

// Property: ApplyAtomic leaves exactly the bytes Apply does.
func TestQuickApplyAtomicEqualsApply(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		size := (1 + r.Intn(64)) * WordSize
		base := NewBuf(size)
		r.Read(base)
		cur := Buf(Twin(base))
		for i := 0; i < r.Intn(2*size/WordSize); i++ {
			cur.PutU64(r.Intn(size/WordSize)*WordSize, r.Uint64())
		}
		d := MakeDiff(0, base, cur)
		plain, atomic := Buf(Twin(base)), Buf(Twin(base))
		d.Apply(plain)
		d.ApplyAtomic(atomic)
		return bytes.Equal(plain, atomic) && bytes.Equal(atomic, cur)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// ---- write masks ----

// refDiff is the plain word-by-word scan MakeDiff's fast paths must
// reproduce exactly.
func refDiff(twin, cur []byte) []Run {
	var runs []Run
	for i := 0; i < len(cur)/WordSize; i++ {
		o := i * WordSize
		if wordEq(twin[o:], cur[o:]) {
			continue
		}
		if k := len(runs) - 1; k >= 0 && int(runs[k].Off)+len(runs[k].Words) == i {
			runs[k].Words = append(runs[k].Words, Buf(cur).U64(o))
			continue
		}
		runs = append(runs, Run{Off: int32(i), Words: []uint64{Buf(cur).U64(o)}})
	}
	return runs
}

func sameRuns(a, b []Run) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k].Off != b[k].Off || len(a[k].Words) != len(b[k].Words) {
			return false
		}
		for i, w := range a[k].Words {
			if b[k].Words[i] != w {
				return false
			}
		}
	}
	return true
}

// Property: with every write confined to the regions of a random mask,
// the masked diff of a twin holding only those regions (junk elsewhere)
// is byte for byte the full scan's — on pages of fewer than 64 words
// (one word per region), of a multiple of 64 words, and of word counts
// that leave the last region a remainder.
func TestQuickMaskedDiffEqualsFullScan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		words := 1 + r.Intn(600)
		if r.Intn(2) == 0 {
			words = 32 << r.Intn(5) // 256 B .. 4 KB
		}
		size := words * WordSize
		base := NewBuf(size)
		r.Read(base)
		mask := r.Uint64()
		if r.Intn(2) == 0 { // a few runs of adjacent regions
			mask = 0
			for k := r.Intn(4); k >= 0; k-- {
				lo := r.Intn(64)
				mask |= (1<<min(64-lo, 1+r.Intn(8)) - 1) << lo
			}
		}
		twin := NewBuf(size)
		r.Read(twin)
		CopyRegions(twin, base, mask)
		cur := Buf(Twin(base))
		for i := r.Intn(2 * words); i > 0; i-- {
			off := r.Intn(words) * WordSize
			if Region(size, off)&mask != 0 {
				cur.PutU64(off, r.Uint64())
			}
		}
		want := refDiff(base, cur)
		return sameRuns(MakeDiffMasked(0, twin, cur, mask).Runs, want) &&
			sameRuns(MakeDiff(0, base, cur).Runs, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// A run of modified words crossing from one dirty region into the
// adjacent one is one run, not one per region.
func TestMaskedRunSpansAdjacentRegions(t *testing.T) {
	cur := NewBuf(4096)
	twin := NewBuf(4096)
	for i := range twin {
		twin[i] = 0xee // junk outside the mask
	}
	mask := Region(4096, 200) | Region(4096, 256) // regions 3 and 4
	CopyRegions(twin, cur, mask)
	for off := 240; off < 272; off += WordSize { // words 30..33
		cur.PutU64(off, uint64(off))
	}
	d := MakeDiffMasked(0, twin, cur, mask)
	if len(d.Runs) != 1 || d.Runs[0].Off != 30 || len(d.Runs[0].Words) != 4 {
		t.Fatalf("runs = %+v, want one run of 4 words at word 30", d.Runs)
	}
}

func TestRegionBoundaries(t *testing.T) {
	for _, c := range []struct {
		size, off int
		bit       int
	}{
		{4096, 0, 0}, {4096, 63, 0}, {4096, 64, 1}, {4096, 4095, 63},
		{256, 8, 1}, {256, 255, 31}, // one word per region
		{800, 62 * 8, 62}, {800, 63 * 8, 63}, {800, 799, 63}, // 100 words: the last region takes 37
	} {
		if got := Region(c.size, c.off); got != 1<<c.bit {
			t.Errorf("Region(%d, %d) = %#x, want bit %d", c.size, c.off, got, c.bit)
		}
	}
}
