package core

import (
	"bytes"
	"math/rand"
	"testing"

	"lrcdsm/internal/page"
	"lrcdsm/internal/vc"
)

// refDominators is the exhaustive scan Proc.dominators replaced, kept as
// its reference: every notice on the page, whoever wrote it, is looked up
// and compared against td's vector time.
func refDominators(p *Proc, td taggedDiff) []taggedDiff {
	ps := &p.pages[td.pg]
	if ps.notices == nil {
		return nil
	}
	var redo []taggedDiff
	for w := 0; w < p.nprocs(); w++ {
		for _, i := range ps.notices[w] {
			if w == td.rec.proc && i == td.rec.idx {
				continue
			}
			if !ps.applied(w, i) {
				continue
			}
			rec := p.recByKey[recKey(w, i)]
			if rec.vt.Covers(td.rec.vt) {
				redo = append(redo, taggedDiff{rec: rec, pg: td.pg})
			}
		}
	}
	sortDiffsHB(redo)
	return redo
}

// randomHistory builds a data-race-free history of n intervals on one page
// by processors 1..writers: before an interval a writer may acquire from
// another (joining its vector time), and it writes only words whose last
// writer it has seen. Every write stores a distinct value.
func randomHistory(r *rand.Rand, writers, n, pageSize int) []*intervalRec {
	const pg = page.ID(0)
	nprocs := writers + 1
	vts := make([]vc.VC, nprocs)
	for i := range vts {
		vts[i] = vc.New(nprocs)
	}
	words := pageSize / page.WordSize
	lastWrite := make([]*intervalRec, words)
	var recs []*intervalRec
	for val := uint64(1); len(recs) < n; val++ {
		w := 1 + r.Intn(writers)
		if r.Intn(10) < 6 {
			vts[w].Join(vts[1+r.Intn(writers)])
		}
		var mine []int
		for x := range lastWrite {
			if lastWrite[x] == nil || vts[w].Covers(lastWrite[x].vt) {
				mine = append(mine, x)
			}
		}
		if len(mine) == 0 {
			continue // everything is held by writers w has not heard from
		}
		rec := &intervalRec{proc: w, idx: vts[w].Tick(w), pages: []page.ID{pg}}
		rec.vt = vts[w].Clone()
		twin, cur := page.NewBuf(pageSize), page.NewBuf(pageSize)
		for k := 1 + r.Intn(3); k > 0; k-- {
			x := mine[r.Intn(len(mine))]
			cur.PutU64(x*page.WordSize, val<<8|uint64(k))
			lastWrite[x] = rec
		}
		rec.diffs = []page.Diff{page.MakeDiff(pg, twin, cur)}
		recs = append(recs, rec)
	}
	return recs
}

// TestDominatorsMatchExhaustiveScan delivers random histories to a
// processor the way barrier pushes arrive — in batches, in any order, each
// diff bringing its own notice — and checks every repair decision against
// the exhaustive scan, and the final page against the history applied in
// happened-before order.
func TestDominatorsMatchExhaustiveScan(t *testing.T) {
	const pg = page.ID(0)
	var decided, repaired, ruledOut int
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		writers := 2 + r.Intn(4)
		p := newBareProc(t, writers+1, 1)
		pageSize := p.sys.cfg.PageSize
		recs := randomHistory(r, writers, 10+r.Intn(50), pageSize)

		want := page.NewBuf(pageSize)
		inOrder := make([]taggedDiff, len(recs))
		for i, rec := range recs {
			inOrder[i] = taggedDiff{rec: rec, pg: pg}
		}
		sortDiffsHB(inOrder)
		for _, td := range inOrder {
			d := td.diff()
			d.Apply(want)
		}

		ps := &p.pages[pg]
		r.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		for len(recs) > 0 {
			n := min(1+r.Intn(5), len(recs))
			var batch []taggedDiff
			for _, rec := range recs[:n] {
				p.insertRec(rec)
				batch = append(batch, taggedDiff{rec: rec, pg: pg})
			}
			recs = recs[n:]
			// applyBatch, with the two scans compared ahead of every diff
			// about to be incorporated.
			sortDiffsHB(batch)
			for progress := true; progress; {
				progress = false
				for _, td := range batch {
					if ps.applied(td.rec.proc, td.rec.idx) {
						continue
					}
					if p.canApply(td) {
						ref, got := refDominators(p, td), p.dominators(td)
						if len(ref) != len(got) {
							t.Fatalf("seed %d: interval (%d,%d): %d dominators, exhaustive scan finds %d",
								seed, td.rec.proc, td.rec.idx, len(got), len(ref))
						}
						for i := range ref {
							if ref[i] != got[i] {
								t.Fatalf("seed %d: interval (%d,%d): dominator %d is (%d,%d), exhaustive scan has (%d,%d)",
									seed, td.rec.proc, td.rec.idx, i, got[i].rec.proc, got[i].rec.idx, ref[i].rec.proc, ref[i].rec.idx)
							}
						}
						decided++
						if len(ref) > 0 {
							repaired++
						} else if ps.coverVC == nil || !ps.coverVC.CoversInterval(td.rec.proc, td.rec.idx) {
							ruledOut++
						}
					}
					if p.applyTagged(td) {
						progress = true
					}
				}
			}
			for _, td := range batch {
				if !ps.applied(td.rec.proc, td.rec.idx) {
					t.Fatalf("seed %d: interval (%d,%d) was delivered but not incorporated", seed, td.rec.proc, td.rec.idx)
				}
			}
		}
		if !bytes.Equal(ps.data, want) {
			t.Fatalf("seed %d: page differs from the history applied in happened-before order", seed)
		}
	}
	// The histories must reach both sides of the decision.
	if repaired == 0 || ruledOut == 0 {
		t.Fatalf("of %d decisions %d repaired and %d were ruled out by the cover vector alone; want both", decided, repaired, ruledOut)
	}
	t.Logf("%d decisions: %d repaired, %d ruled out by the cover vector alone", decided, repaired, ruledOut)
}
