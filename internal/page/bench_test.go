package page

import "testing"

func benchPage(dirtyWords int) (twin, cur Buf) {
	cur = NewBuf(4096)
	for i := range cur {
		cur[i] = byte(i * 31)
	}
	twin = Buf(Twin(cur))
	for w := 0; w < dirtyWords; w++ {
		cur.PutU64((w*37%512)*8, uint64(w)*0x9E3779B97F4A7C15)
	}
	return
}

// BenchmarkMakeDiffSparse diffs a 4 KB page with ~3% dirty words (the
// common protocol case: one molecule's force words).
func BenchmarkMakeDiffSparse(b *testing.B) {
	twin, cur := benchPage(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := MakeDiff(0, twin, cur)
		if d.Empty() {
			b.Fatal("diff empty")
		}
	}
}

// BenchmarkMakeDiffDense diffs a fully rewritten page (barrier-phase
// owner updates).
func BenchmarkMakeDiffDense(b *testing.B) {
	twin, cur := benchPage(512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MakeDiff(0, twin, cur)
	}
}

// BenchmarkApplyDiff applies a sparse diff.
func BenchmarkApplyDiff(b *testing.B) {
	twin, cur := benchPage(16)
	d := MakeDiff(0, twin, cur)
	dst := NewBuf(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Apply(dst)
	}
}

// BenchmarkMakeDiffMasked diffs the one dirty 64-byte region of a 4 KB
// page: what a locked write's release pays (one word written).
func BenchmarkMakeDiffMasked(b *testing.B) {
	twin, cur := benchPage(0)
	cur.PutU64(1024, 42)
	mask := Region(len(cur), 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if MakeDiffMasked(0, twin, cur, mask).Empty() {
			b.Fatal("diff empty")
		}
	}
}
