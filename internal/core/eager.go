package core

import (
	"fmt"
	"math/bits"

	"lrcdsm/internal/page"
	"lrcdsm/internal/vc"
)

// eagerProto implements the eager protocols, modelled on Munin's
// multiple-writer protocol: a processor delays propagating its
// modifications of shared data until it comes to a release, at which point
// write notices — together with diffs in the EU protocol — are flushed to
// all other processors that cache the modified pages, possibly taking
// multiple rounds if the local copysets are not up to date. A release is
// delayed until all modifications have been acknowledged.
type eagerProto struct {
	update bool // true: EU, false: EI
}

func (e *eagerProto) releaseFlush(p *Proc) {
	if len(p.modList) == 0 {
		return
	}
	if e.update {
		// EU also serializes its update flushes per page and lets the owner
		// defer page requests meanwhile: a fetch served from a copy the
		// in-flight flush has not reached yet would otherwise install stale
		// data that no later update corrects.
		pgs := append([]page.ID(nil), p.modList...)
		p.acquireFlushTokens(pgs)
		p.startFlush(p.flushModified(), false, true, attrRelease)
		p.releaseFlushTokens(pgs)
		return
	}
	// EI: serialize invalidation flushes per page — two releasers racing on
	// a falsely shared page would otherwise invalidate each other and leave
	// no valid copy anywhere — and refetch any dirty page invalidated under
	// us so the post-release holder's copy is complete.
	pgs := append([]page.ID(nil), p.modList...)
	p.acquireFlushTokens(pgs)
	for _, pg := range pgs {
		if !p.pages[pg].valid {
			p.miss(pg)
		}
	}
	tds := p.flushModified()
	p.startFlush(tds, true, true, attrRelease)
	p.releaseFlushTokens(pgs)
}

// buildGrant: an eager acquire consists solely of locating the processor
// that executed the corresponding release and transferring the
// synchronization variable; no consistency information moves.
func (e *eagerProto) buildGrant(r *Proc, to int, acqVT vc.VC) *grantInfo { return nil }

func (e *eagerProto) applyGrant(p *Proc, g *grantInfo, wake func()) { wake() }

func (e *eagerProto) barrierPush(p *Proc) *arrival {
	tds := p.flushModified()
	if e.update {
		// EU: flush modifications to all other cachers of locally modified
		// pages before sending the arrival message (2u messages). EU never
		// invalidates, so correctness depends on reaching *every* cacher:
		// the per-page flush closes the copyset over acknowledgement
		// rounds, unlike the lazy barrier pushes whose missed cachers are
		// caught by the departure's write notices.
		if len(tds) > 0 {
			pgs := tds[0].rec.pages // each modified page once
			p.acquireFlushTokens(pgs)
			p.startFlush(tds, false, true, attrBarrier)
			p.releaseFlushTokens(pgs)
		}
		return &arrival{}
	}
	// EI: report the modified pages to the master, which will designate a
	// winner per concurrently modified page; keep the diffs in case this
	// processor loses and must forward them.
	p.eiLoserDiffs = tds
	a := &arrival{}
	for _, td := range tds {
		a.eiPages = append(a.eiPages, td.pg)
	}
	return a
}

func (e *eagerProto) applyDepart(p *Proc, d *departInfo, wake func()) {
	p.episodeSeen = d.episode
	defer p.replayEpisodeReqs()
	if e.update {
		wake()
		return
	}
	s := p.sys
	pending := make(map[page.ID]int)
	total := 0
	for _, ep := range d.eiPages {
		ps := &p.pages[ep.pg]
		mine := ep.mods&(1<<uint(p.id)) != 0
		switch {
		case ep.winner == p.id:
			if !ps.valid {
				// The master verified validity when it designated us and
				// our departure outruns any later invalidation on this
				// destination's FIFO port; reaching here is a bug.
				panic(fmt.Sprintf("core: EI winner %d invalid for page %d", p.id, ep.pg))
			}
			// Winner: retain the only valid copy; await the modifiers'
			// diffs (all of them if we did not modify the page ourselves).
			n := bits.OnesCount64(ep.mods)
			if mine {
				n--
			}
			if p.eiEarlyEpisode == d.episode {
				if early := p.eiEarlyFlush[ep.pg]; early > 0 {
					n -= early
					delete(p.eiEarlyFlush, ep.pg)
				}
			}
			if n > 0 {
				pending[ep.pg] = n
				total += n
			}
			ps.copyset = 1 << uint(p.id)
			ps.lastWriterHint = int32(p.id)
		case mine:
			// Loser: forward our modifications to the winner, invalidate.
			var td taggedDiff
			found := false
			for _, cand := range p.eiLoserDiffs {
				if cand.pg == ep.pg {
					td = cand
					found = true
					break
				}
			}
			if !found {
				panic(fmt.Sprintf("core: EI loser %d missing diff for page %d", p.id, ep.pg))
			}
			s.sendFromHandler(&msg{kind: mDiffFlush, src: p.id, dst: ep.winner,
				class: ClassData, attr: attrBarrier, pg: ep.pg, episode: d.episode,
				diffs: []taggedDiff{td}, payload: td.diff().SizeBytes()})
			ps.valid = false
			ps.copyset = 1 << uint(ep.winner)
			ps.lastWriterHint = int32(ep.winner)
		default:
			// Cacher (or bystander): the page was modified elsewhere.
			ps.valid = false
			ps.copyset = 1 << uint(ep.winner)
			ps.lastWriterHint = int32(ep.winner)
		}
	}
	p.eiLoserDiffs = nil
	if total > 0 {
		p.eiFlushPending = pending
		p.eiFlushTotal = total
		p.barWaiting = true
		return // handleDiffFlush wakes when the last loser diff arrives
	}
	wake()
}

func (e *eagerProto) handleMiss(p *Proc, pg page.ID) {
	p.fetchToken++
	f := &fetchOp{pg: pg, attr: attrMiss, blocked: true, token: p.fetchToken}
	p.fetch = f
	f.pending = 1
	p.sys.stats.PageFetches++
	p.sendFromProc(&msg{kind: mPageReq, src: p.id, dst: p.sys.pageOwner(pg),
		class: ClassData, attr: attrMiss, pg: pg, episode: p.episodeSeen, token: f.token})
	p.sp.Block()
}

// handlePageReq serves a whole-page copy ("EI moves significantly more
// data than the other protocols because its access misses cause entire
// pages to be transmitted, rather than diffs"). The owner forwards the
// request to a processor with a valid copy when its own is invalid (the
// "2 or 3" messages of Table 1).
func (e *eagerProto) handlePageReq(p *Proc, m *msg) {
	s := p.sys
	ps := &p.pages[m.pg]
	if p.eiFlushPending != nil && p.eiFlushPending[m.pg] > 0 {
		// Barrier merge in progress: serve once the losers' diffs arrive.
		p.deferredPageReqs = append(p.deferredPageReqs, m.kept())
		return
	}
	if m.episode > p.episodeSeen {
		// The requester departed a barrier we have not yet processed: our
		// copy may be stale-valid. Serve after our own departure.
		p.deferredEpisodeReqs = append(p.deferredEpisodeReqs, m.kept())
		return
	}
	if holder, held := s.flushBusy[m.pg]; held && p.id == s.pageOwner(m.pg) && holder != m.src {
		// An invalidation flush is in progress: forwarding now could reach
		// a stale copy the flush has not invalidated yet. Serve when the
		// flush completes (the owner's hint then names the releaser). The
		// holder's own pre-flush refetch must pass or it would deadlock.
		s.flushDeferred[m.pg] = append(s.flushDeferred[m.pg], m.kept())
		return
	}
	if ps.data == nil || !ps.valid {
		hint := ps.lastWriterHint
		if hint < 0 || int(hint) == p.id {
			panic(fmt.Sprintf("core: proc %d cannot serve or forward page %d", p.id, m.pg))
		}
		if m.hops > 4*s.cfg.Procs {
			panic(fmt.Sprintf("core: page request for %d forwarded %d times", m.pg, m.hops))
		}
		p.noteCopysetJoin(m.pg, m.src)
		fwd := *m
		fwd.dst = int(hint)
		fwd.hops++
		s.sendFromHandler(&fwd)
		return
	}
	p.noteCopysetJoin(m.pg, m.src)
	img := page.NewTwin(ps.data) // freed by the requester unless adopted as its copy
	s.sendFromHandler(&msg{kind: mPageReply, src: p.id, dst: m.src,
		class: ClassData, attr: m.attr, pg: m.pg, token: m.token,
		data: img, copyset: ps.copyset, payload: s.cfg.PageSize})
}

func (e *eagerProto) handleUpdate(p *Proc, m *msg) {
	s := p.sys
	if p.fetch != nil {
		for _, td := range m.diffs {
			if p.fetch.pg == td.pg {
				// The page reply in flight predates this update; refetch.
				p.fetch.poisoned = true
				break
			}
		}
	}
	for _, td := range m.diffs {
		tps := &p.pages[td.pg]
		if tps.data == nil {
			continue
		}
		d := td.diff()
		d.Apply(tps.data)
		if tps.twin != nil {
			d.Apply(tps.twin)
		}
		s.stats.DiffsApplied++
		p.cache.InvalidateRange(p.pageAddr(td.pg), s.cfg.PageSize)
		tps.copyset |= 1 << uint(m.src)
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
