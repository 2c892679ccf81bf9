package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lrcdsm/internal/page"
	"lrcdsm/internal/vc"
)

// newBareProc builds a processor outside a running system, for unit tests
// of the bookkeeping machinery. Its page table is sized the way Run sizes
// it, over an allocation of npages pages (page 0 is owned by processor 0,
// the rest are spread in blocks).
func newBareProc(t testing.TB, nprocs, npages int) *Proc {
	t.Helper()
	cfg := testConfig(LH, nprocs)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.AllocPage(npages * cfg.PageSize)
	s.placePages()
	return s.procs[0]
}

// Property: applied() reflects exactly the set of marked intervals, under
// any interleaving of notice insertion and application, and the contiguous
// base never claims an unapplied noticed interval.
func TestQuickAppliedSetExact(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := newBareProc(t, 4, 1)
		const pg = page.ID(0)
		const writer = 1
		p.pages[pg].data = page.NewBuf(256)

		// a random set of intervals, with notices and applications arriving
		// in arbitrary interleaved order
		n := 1 + r.Intn(12)
		idxs := r.Perm(20)[:n]
		marked := map[int32]bool{}
		noticed := map[int32]bool{}
		// the processor's vector time bounds safe promotion
		p.vt.Set(writer, int32(r.Intn(22)))

		steps := r.Perm(2 * n)
		for _, st := range steps {
			idx := int32(idxs[st%n] + 1)
			if st < n {
				// insert a notice via a synthetic record
				if !noticed[idx] {
					noticed[idx] = true
					p.insertRec(&intervalRec{
						proc: writer, idx: idx, vt: vc.New(4),
						pages: []page.ID{pg},
						diffs: []page.Diff{{}},
					})
				}
			} else {
				marked[idx] = true
				p.markApplied(pg, writer, idx)
			}
		}
		ps := &p.pages[pg]
		for i := int32(1); i <= 21; i++ {
			got := ps.applied(writer, i)
			want := marked[i]
			if got && !want {
				// the base may legitimately cover un-marked indices only
				// below the vector time AND only where no notice exists
				if noticed[i] || i > p.vt.Get(writer) {
					return false
				}
			}
			if want && !got {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the contiguous base never exceeds the processor's vector time
// for the writer unless set directly by the writer's own close, and the
// overflow list stays sorted and above the base.
func TestQuickPromotionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := newBareProc(t, 3, 1)
		const pg = page.ID(0)
		const writer = 2
		p.pages[pg].data = page.NewBuf(256)
		p.vt.Set(writer, int32(r.Intn(15)))
		for i := 0; i < 10; i++ {
			idx := int32(1 + r.Intn(18))
			if r.Intn(2) == 0 {
				p.insertRec(&intervalRec{
					proc: writer, idx: idx, vt: vc.New(3),
					pages: []page.ID{pg},
					diffs: []page.Diff{{}},
				})
			}
			p.markApplied(pg, writer, idx)
		}
		ps := &p.pages[pg]
		if ps.copyVT[writer] > p.vt.Get(writer) {
			return false
		}
		if ps.extraApplied != nil {
			xs := ps.extraApplied[writer]
			for i, x := range xs {
				if x <= ps.copyVT[writer] {
					return false
				}
				if i > 0 && xs[i-1] >= x {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: notices stay sorted ascending per writer regardless of record
// arrival order.
func TestQuickNoticesSorted(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := newBareProc(t, 2, 2)
		const pg = page.ID(1)
		for _, idx := range r.Perm(15) {
			p.insertRec(&intervalRec{
				proc: 1, idx: int32(idx + 1), vt: vc.New(2),
				pages: []page.ID{pg},
				diffs: []page.Diff{{}},
			})
		}
		ns := p.pages[pg].notices[1]
		if len(ns) != 15 {
			return false
		}
		for i := 1; i < len(ns); i++ {
			if ns[i] <= ns[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: recsNotCoveredBy returns exactly the records above the given
// vector time, for random record sets.
func TestQuickRecsNotCovered(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := newBareProc(t, 4, 1)
		total := 0
		for w := 1; w < 4; w++ {
			n := r.Intn(8)
			for i := 1; i <= n; i++ {
				p.insertRec(&intervalRec{proc: w, idx: int32(i), vt: vc.New(4)})
				total++
			}
		}
		v := vc.New(4)
		for w := 0; w < 4; w++ {
			v.Set(w, int32(r.Intn(9)))
		}
		got := p.recsNotCoveredBy(v)
		want := 0
		for w := 1; w < 4; w++ {
			for i := 1; i <= len(p.recsByProc[w]); i++ {
				if int32(i) > v.Get(w) {
					want++
				}
			}
		}
		if len(got) != want {
			return false
		}
		for _, rec := range got {
			if rec.idx <= v.Get(rec.proc) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
