package core

import (
	"fmt"

	"lrcdsm/internal/page"
	"lrcdsm/internal/vc"
)

// lazyProto implements lazy release consistency (Keleher et al., ISCA'92)
// in its three variants:
//
//   - LI (lazy invalidate): the lock grant carries write notices; the
//     acquirer invalidates the pages for which it receives notices with
//     larger timestamps; data moves only in response to access misses.
//   - LU (lazy update): never invalidates; an acquire does not succeed
//     until all diffs described by the new write notices for locally
//     cached pages have been obtained, fetched from the concurrent last
//     modifiers when not piggybacked.
//   - LH (lazy hybrid, this paper's contribution): the releaser piggybacks
//     on the grant, in addition to write notices, the diffs of pages it
//     believes the acquirer caches (its copyset); the acquirer invalidates
//     the noticed pages for which no diffs were included. A single message
//     pair, like LI, with the reduced miss rate of LU.
type lazyProto struct {
	kind Protocol
}

// releaseFlush is not used by the lazy protocols: Unlock closes the
// interval instead, and consistency information moves at the next acquire.
func (l *lazyProto) releaseFlush(p *Proc) {}

func (l *lazyProto) buildGrant(r *Proc, to int, acqVT vc.VC) *grantInfo {
	if acqVT == nil {
		acqVT = vc.New(r.nprocs())
	}
	g := &grantInfo{vt: r.vt.Clone(), recs: r.recsNotCoveredBy(acqVT)}
	if l.kind == LH || l.kind == LU {
		for _, rec := range g.recs {
			for i, pg := range rec.pages {
				if r.pages[pg].copyset&(1<<uint(to)) != 0 && r.hasDiff(rec, pg) {
					g.diffs = append(g.diffs, taggedDiff{rec: rec, pg: pg, slot: int32(i)})
				}
			}
		}
		sortDiffsHB(g.diffs)
	}
	return g
}

func (l *lazyProto) applyGrant(p *Proc, g *grantInfo, wake func()) {
	if g == nil {
		wake()
		return
	}
	touched := p.absorbConsistency(g.vt, g.recs, g.diffs)
	if l.kind == LU {
		if need := p.unsatisfiedCached(touched); len(need) > 0 {
			p.startLUFetch(need, attrLock, wake)
			return
		}
	}
	wake()
}

func (l *lazyProto) barrierPush(p *Proc) *arrival {
	s := p.sys
	p.closeInterval()
	if l.kind != LI {
		// Push updates for our not-yet-pushed intervals to every processor
		// believed to cache the modified pages. LU waits for the data to be
		// acknowledged (2u messages), LH pushes without acknowledgement (u).
		var tds []taggedDiff
		own := p.recsByProc[p.id]
		for _, rec := range own {
			if rec.idx <= p.pushedUpTo {
				continue
			}
			for i, pg := range rec.pages {
				tds = append(tds, taggedDiff{rec: rec, pg: pg, slot: int32(i)})
			}
		}
		p.pushedUpTo = p.vt.Get(p.id)
		if len(tds) > 0 {
			p.batchedPush(tds, l.kind == LU, attrBarrier)
		}
	}
	return &arrival{recs: p.recsNotCoveredBy(s.bar.baseVT), vt: p.vt.Clone()}
}

func (l *lazyProto) applyDepart(p *Proc, d *departInfo, wake func()) {
	touched := p.absorbConsistency(d.vt, d.recs, nil)
	if l.kind == LU {
		if need := p.unsatisfiedCached(touched); len(need) > 0 {
			p.startLUFetch(need, attrBarrier, wake)
			return
		}
	}
	wake()
}

// absorbConsistency installs incoming write notices and piggybacked diffs,
// joins the vector clock, and recomputes validity of every touched cached
// page (valid iff every known notice is incorporated). Returns the touched
// pages in deterministic order.
func (p *Proc) absorbConsistency(v vc.VC, recs []*intervalRec, diffs []taggedDiff) []page.ID {
	for _, rec := range recs {
		p.insertRec(rec)
	}
	if v != nil {
		p.vt.Join(v)
		p.sys.obsClockAdvanced(p)
	}
	p.applyBatch(diffs)
	var touched []page.ID
	seen := make(map[page.ID]bool)
	for _, rec := range recs {
		for _, pg := range rec.pages {
			if !seen[pg] {
				seen[pg] = true
				touched = append(touched, pg)
			}
		}
	}
	for _, pg := range touched {
		ps := &p.pages[pg]
		if ps.data == nil {
			continue
		}
		ps.valid = p.noticesSatisfied(pg)
	}
	return touched
}

// unsatisfiedCached returns the cached pages among touched whose notices
// are not yet incorporated — the pages LU must update before the acquire
// completes.
func (p *Proc) unsatisfiedCached(touched []page.ID) []page.ID {
	var out []page.ID
	for _, pg := range touched {
		if p.pages[pg].data != nil && !p.noticesSatisfied(pg) {
			out = append(out, pg)
		}
	}
	return out
}

func (l *lazyProto) handleMiss(p *Proc, pg page.ID) {
	p.startFetch(pg, p.pages[pg].data == nil, attrMiss, nil)
}

// handlePageReq serves a page copy: the committed image (the twin when the
// page is dirty) plus the copy's coverage timestamp and the server's
// copyset.
func (l *lazyProto) handlePageReq(p *Proc, m *msg) {
	s := p.sys
	ps := &p.pages[m.pg]
	if ps.data == nil {
		panic(fmt.Sprintf("core: proc %d asked for page %d it never cached", p.id, m.pg))
	}
	src := ps.data
	if ps.twin != nil {
		src = ps.twin
	}
	img := page.NewTwin(src) // freed by the requester unless adopted as its copy
	var vtc []int32
	if ps.copyVT != nil {
		vtc = make([]int32, len(ps.copyVT))
		copy(vtc, ps.copyVT)
	}
	var cover []int32
	if ps.coverVC != nil {
		cover = []int32(ps.coverVC.Clone())
	}
	ps.copyset |= 1 << uint(m.src)
	s.sendFromHandler(&msg{kind: mPageReply, src: p.id, dst: m.src,
		class: ClassData, attr: m.attr, pg: m.pg, token: m.token,
		data: img, vt: vtc, coverVT: cover, copyset: ps.copyset, payload: s.cfg.PageSize})
}

// handleUpdate applies a pushed diff (LH/LU barrier pushes), revalidating
// the page when it becomes fully covered.
func (l *lazyProto) handleUpdate(p *Proc, m *msg) {
	s := p.sys
	// The pushed diffs bring their write notices along, so ordering (and
	// later validity checks) see them; a batched push can span pages.
	for _, td := range m.diffs {
		p.insertRec(td.rec)
	}
	p.applyBatch(m.diffs)
	seen := make(map[page.ID]bool)
	for _, td := range m.diffs {
		if seen[td.pg] {
			continue
		}
		seen[td.pg] = true
		ps := &p.pages[td.pg]
		if ps.data != nil && !ps.valid && p.noticesSatisfied(td.pg) {
			ps.valid = true
		}
		ps.copyset |= 1 << uint(m.src)
	}
	if m.flag {
		ack := &msg{kind: mUpdateAck, src: p.id, dst: m.src,
			class: ClassData, attr: m.attr, pg: m.pg, flag: true}
		if m.pg >= 0 {
			ack.copyset = p.pages[m.pg].copyset
		}
		s.sendFromHandler(ack)
	}
}

// ---- LU batched diff fetch ----

// luFetchOp tracks an in-progress LU acquire-time fetch covering multiple
// pages, batched per target processor (one request per concurrent last
// modifier — the "2h" term in Table 1's LU lock cost).
type luFetchOp struct {
	pages   []page.ID
	pending int
	got     []taggedDiff
	rounds  int
	attr    attr
	onDone  func()
}

// startLUFetch fetches, in handler context, every diff needed to satisfy
// the notices of the given cached pages, then revalidates them and calls
// onDone.
func (p *Proc) startLUFetch(pages []page.ID, a attr, onDone func()) {
	if p.luFetch != nil {
		panic(fmt.Sprintf("core: proc %d has overlapping LU fetches", p.id))
	}
	op := &luFetchOp{pages: pages, attr: a, onDone: onDone}
	p.luFetch = op
	var order []int
	byTarget := make(map[int]*msg)
	for _, pg := range pages {
		ps := &p.pages[pg]
		for _, r := range p.lastModifiers(pg) {
			if r.proc == p.id || p.hasAllFrom(pg, r) {
				continue
			}
			m := byTarget[r.proc]
			if m == nil {
				m = &msg{kind: mBatchDiffReq, src: p.id, dst: r.proc,
					class: ClassData, attr: a}
				byTarget[r.proc] = m
				order = append(order, r.proc)
			}
			dup := false
			for _, q := range m.pgs {
				if q == pg {
					dup = true
					break
				}
			}
			if !dup {
				have := make([]int32, p.nprocs())
				if ps.copyVT != nil {
					copy(have, ps.copyVT)
				}
				m.pgs = append(m.pgs, pg)
				m.vts = append(m.vts, have)
				m.needs = append(m.needs, p.noticeMaxes(pg))
			}
		}
	}
	op.pending = len(order)
	for _, t := range order {
		p.sys.sendFromHandler(byTarget[t])
	}
	if op.pending == 0 {
		p.luContinue()
	}
}

// handleBatchDiffReq serves a multi-page diff request.
func (s *System) handleBatchDiffReq(p *Proc, m *msg) {
	var ds []taggedDiff
	for i, pg := range m.pgs {
		p.pages[pg].copyset |= 1 << uint(m.src)
		var need []int32
		if m.needs != nil {
			need = m.needs[i]
		}
		ds = append(ds, p.servableDiffs(pg, m.vts[i], need)...)
	}
	s.sendFromHandler(&msg{kind: mBatchDiffReply, src: p.id, dst: m.src,
		class: ClassData, attr: m.attr, diffs: ds, payload: diffsPayloadBytes(ds)})
}

func (p *Proc) handleBatchDiffReply(m *msg) {
	op := p.luFetch
	if op == nil {
		panic(fmt.Sprintf("core: proc %d unexpected batch diff reply", p.id))
	}
	op.got = append(op.got, m.diffs...)
	op.pending--
	if op.pending > 0 {
		return
	}
	for _, td := range op.got {
		p.insertRec(td.rec)
	}
	p.applyBatch(op.got)
	op.got = nil
	p.luContinue()
}

// luContinue launches a fallback round for any still-unsatisfied page,
// querying each missing interval's creator directly, or completes the
// fetch.
func (p *Proc) luContinue() {
	op := p.luFetch
	var order []int
	byTarget := make(map[int]*msg)
	for _, pg := range op.pages {
		ps := &p.pages[pg]
		if p.noticesSatisfied(pg) {
			continue
		}
		for w := 0; w < p.nprocs(); w++ {
			ns := ps.notices[w]
			if len(ns) == 0 || w == p.id {
				continue
			}
			var have int32
			if ps.copyVT != nil {
				have = ps.copyVT[w]
			}
			if ns[len(ns)-1] <= have {
				continue
			}
			m := byTarget[w]
			if m == nil {
				m = &msg{kind: mBatchDiffReq, src: p.id, dst: w, class: ClassData, attr: op.attr}
				byTarget[w] = m
				order = append(order, w)
			}
			hv := make([]int32, p.nprocs())
			if ps.copyVT != nil {
				copy(hv, ps.copyVT)
			}
			m.pgs = append(m.pgs, pg)
			m.vts = append(m.vts, hv)
			m.needs = append(m.needs, p.noticeMaxes(pg))
		}
	}
	if len(order) > 0 {
		op.rounds++
		if op.rounds > 8 {
			panic(fmt.Sprintf("core: proc %d cannot complete LU fetch", p.id))
		}
		op.pending = len(order)
		for _, t := range order {
			p.sys.sendFromHandler(byTarget[t])
		}
		return
	}
	p.finishLUFetch()
}

func (p *Proc) finishLUFetch() {
	op := p.luFetch
	p.luFetch = nil
	for _, pg := range op.pages {
		ps := &p.pages[pg]
		if ps.data != nil && !p.noticesSatisfied(pg) {
			panic(fmt.Sprintf("core: proc %d LU fetch left page %d unsatisfied", p.id, pg))
		}
		if ps.data != nil {
			ps.valid = true
		}
	}
	op.onDone()
}
