package core

import (
	"cmp"
	"slices"
	"sort"

	"lrcdsm/internal/page"
	"lrcdsm/internal/vc"
)

// intervalRec describes one closed interval of one processor: the interval's
// vector timestamp and the pages it modified, together with the diffs
// produced at the interval's close. Records are immutable once created and
// are shared by pointer; *possessing* a record (having received its write
// notices) is distinct from possessing its diffs, which a processor may only
// serve if it created or applied them (tracked by per-page copy timestamps).
// diffs parallels pages: diffs[i] is the diff of pages[i].
type intervalRec struct {
	proc  int
	idx   int32
	vt    vc.VC
	pages []page.ID
	diffs []page.Diff
}

func recKey(proc int, idx int32) int64 { return int64(proc)<<32 | int64(idx) }

// taggedDiff is a diff labelled with the interval that produced it, as
// transmitted in updates, grants and diff replies. slot is pg's index in
// rec.pages.
type taggedDiff struct {
	rec  *intervalRec
	pg   page.ID
	slot int32
}

// tag labels rec's diff of pg, which must be one of rec's pages.
func (r *intervalRec) tag(pg page.ID) taggedDiff {
	return taggedDiff{rec: r, pg: pg, slot: int32(slices.Index(r.pages, pg))}
}

func (t taggedDiff) diff() page.Diff { return t.rec.diffs[t.slot] }

// sortDiffsHB orders tagged diffs by a linear extension of happened-before-1
// (vector-sum order: if a happened-before b then sum(a.vt) < sum(b.vt)).
// Concurrent diffs of data-race-free programs touch disjoint words, so any
// deterministic order among them is sound; ties break on (proc, idx).
func sortDiffsHB(ds []taggedDiff) {
	slices.SortFunc(ds, func(x, y taggedDiff) int {
		a, b := x.rec, y.rec
		if c := cmp.Compare(a.vt.Sum(), b.vt.Sum()); c != 0 {
			return c
		}
		if c := cmp.Compare(a.proc, b.proc); c != 0 {
			return c
		}
		if c := cmp.Compare(a.idx, b.idx); c != 0 {
			return c
		}
		return cmp.Compare(x.pg, y.pg)
	})
}

// diffsPayloadBytes sums the transmitted payload of a diff set.
func diffsPayloadBytes(ds []taggedDiff) int {
	n := 0
	for _, d := range ds {
		n += d.diff().SizeBytes()
	}
	return n
}

// closeInterval ends the processor's current interval if it modified any
// pages: it advances the processor's slot in its vector clock, produces and
// stores diffs for every twinned page (charging the paper's diff-creation
// cost), and records the interval so its write notices can be communicated.
// Returns nil if the interval was empty. Used by the lazy protocols; the
// eager protocols use flushModified instead.
func (p *Proc) closeInterval() *intervalRec {
	if len(p.modList) == 0 {
		return nil
	}
	idx := p.vt.Tick(p.id)
	rec := &intervalRec{
		proc:  p.id,
		idx:   idx,
		vt:    p.vt.Clone(),
		pages: p.modList,
		diffs: make([]page.Diff, len(p.modList)),
	}
	for i, pg := range p.modList {
		ps := &p.pages[pg]
		rec.diffs[i] = page.MakeDiff(pg, ps.twin, ps.data)
		page.FreeTwin(ps.twin)
		ps.twin = nil
		p.chargeDiffCreation()
		// Our own copy contains our own writes.
		ps.ensureCopyVT(p.nprocs())
		ps.copyVT[p.id] = idx
		if ps.coverVC == nil {
			ps.coverVC = vc.New(p.nprocs())
		}
		ps.coverVC.Join(rec.vt)
	}
	p.modList = nil
	p.insertRec(rec)
	p.sys.obsIntervalClosed(rec)
	p.sys.obsClockAdvanced(p)
	return rec
}

// flushModified ends the current modification episode for the eager
// protocols: it produces diffs for every twinned page and returns them,
// clearing the twins. No vector clocks are involved.
func (p *Proc) flushModified() []taggedDiff {
	if len(p.modList) == 0 {
		return nil
	}
	// Eager protocols have no interval records; fabricate an anonymous
	// record to carry the diffs (idx ticks a private counter so records
	// remain unique).
	p.eagerEpoch++
	rec := &intervalRec{
		proc:  p.id,
		idx:   p.eagerEpoch,
		pages: p.modList,
		diffs: make([]page.Diff, len(p.modList)),
	}
	out := make([]taggedDiff, len(p.modList))
	for i, pg := range p.modList {
		ps := &p.pages[pg]
		rec.diffs[i] = page.MakeDiff(pg, ps.twin, ps.data)
		page.FreeTwin(ps.twin)
		ps.twin = nil
		p.chargeDiffCreation()
		out[i] = taggedDiff{rec: rec, pg: pg, slot: int32(i)}
	}
	p.modList = nil
	p.sys.obsEagerFlushed(p.id, rec.idx, rec.pages)
	return out
}

// noticesAbove returns the suffix of the sorted notice list with indices
// strictly greater than x.
func noticesAbove(ns []int32, x int32) []int32 {
	i := sort.Search(len(ns), func(i int) bool { return ns[i] > x })
	return ns[i:]
}

// insertRec stores a received (or locally created) interval record and
// indexes its write notices per page. Idempotent.
func (p *Proc) insertRec(rec *intervalRec) {
	k := recKey(rec.proc, rec.idx)
	if _, ok := p.recByKey[k]; ok {
		return
	}
	p.recByKey[k] = rec
	rs := p.recsByProc[rec.proc]
	pos := len(rs)
	for pos > 0 && rs[pos-1].idx > rec.idx {
		pos--
	}
	rs = append(rs, nil)
	copy(rs[pos+1:], rs[pos:])
	rs[pos] = rec
	p.recsByProc[rec.proc] = rs
	for _, pg := range rec.pages {
		ps := &p.pages[pg]
		ps.ensureNotices(p.nprocs())
		ns := ps.notices[rec.proc]
		ipos := sort.Search(len(ns), func(i int) bool { return ns[i] > rec.idx })
		ns = append(ns, 0)
		copy(ns[ipos+1:], ns[ipos:])
		ns[ipos] = rec.idx
		ps.notices[rec.proc] = ns
		// The writer evidently has a copy: copysets are "updated according
		// to subsequent write notices" (paper, Section 4).
		ps.copyset |= 1 << uint(rec.proc)
	}
}

// recsNotCoveredBy returns, ordered by creator then interval index, every
// interval record known to p that is not already covered by the given
// vector time (i.e. the write notices the peer has not yet seen).
func (p *Proc) recsNotCoveredBy(v vc.VC) []*intervalRec {
	var out []*intervalRec
	for w := 0; w < p.nprocs(); w++ {
		rs := p.recsByProc[w]
		i := sort.Search(len(rs), func(i int) bool { return rs[i].idx > v.Get(w) })
		out = append(out, rs[i:]...)
	}
	return out
}

// lastModifiers returns the concurrent last modifiers of a page as known to
// p: the set of writers whose most recent noticed interval on the page is
// not happened-before any other writer's most recent noticed interval.
func (p *Proc) lastModifiers(pg page.ID) []*intervalRec {
	ps := &p.pages[pg]
	if ps.notices == nil {
		return nil
	}
	var cands []*intervalRec
	for w := 0; w < p.nprocs(); w++ {
		ns := ps.notices[w]
		if len(ns) == 0 {
			continue
		}
		cands = append(cands, p.recByKey[recKey(w, ns[len(ns)-1])])
	}
	var out []*intervalRec
	for _, c := range cands {
		dominated := false
		for _, o := range cands {
			if o != c && o.vt.Covers(c.vt) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	return out
}

// neededDiffs returns, in HB order, the tagged diffs p must apply to bring
// its copy of pg up to date with every write notice it knows about.
func (p *Proc) neededDiffs(pg page.ID) []taggedDiff {
	ps := &p.pages[pg]
	if ps.notices == nil {
		return nil
	}
	var out []taggedDiff
	for w := 0; w < p.nprocs(); w++ {
		var base int32
		if ps.copyVT != nil {
			base = ps.copyVT[w]
		}
		for _, idx := range noticesAbove(ps.notices[w], base) {
			if !ps.applied(w, idx) {
				out = append(out, p.recByKey[recKey(w, idx)].tag(pg))
			}
		}
	}
	sortDiffsHB(out)
	return out
}

// hasDiff reports whether p can legitimately serve the diff of rec for pg:
// p created it, or has applied it into its own copy.
func (p *Proc) hasDiff(rec *intervalRec, pg page.ID) bool {
	if rec.proc == p.id {
		return true
	}
	return p.pages[pg].applied(rec.proc, rec.idx)
}

// servableDiffs returns the diffs p can serve for pg beyond the requester's
// coverage haveVT and at or below its need cap, in HB order. A nil need
// serves everything available.
func (p *Proc) servableDiffs(pg page.ID, haveVT, need []int32) []taggedDiff {
	ps := &p.pages[pg]
	if ps.notices == nil {
		return nil
	}
	var out []taggedDiff
	for w := 0; w < p.nprocs(); w++ {
		for _, idx := range noticesAbove(ps.notices[w], haveVT[w]) {
			if need != nil && idx > need[w] {
				break
			}
			rec := p.recByKey[recKey(w, idx)]
			if p.hasDiff(rec, pg) {
				out = append(out, rec.tag(pg))
			}
		}
	}
	sortDiffsHB(out)
	return out
}

// noticeMaxes returns the per-writer maximum noticed interval on pg — the
// cap a fetch needs to satisfy the page.
func (p *Proc) noticeMaxes(pg page.ID) []int32 {
	out := make([]int32, p.nprocs())
	ps := &p.pages[pg]
	if ps.notices == nil {
		return out
	}
	for w := 0; w < p.nprocs(); w++ {
		if ns := ps.notices[w]; len(ns) > 0 {
			out[w] = ns[len(ns)-1]
		}
	}
	return out
}
