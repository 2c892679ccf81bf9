package core

import (
	"fmt"
	"sort"

	"lrcdsm/internal/page"
	"lrcdsm/internal/trace"
	"lrcdsm/internal/vc"
)

// Barriers are implemented with a barrier master (processor 0) that
// collects arrival messages and distributes departure messages. In terms of
// consistency, a barrier arrival is modelled as a release, and a departure
// as an acquire of every other processor's intervals (Section 4 of the
// paper). 2(n-1) messages, plus the protocol-specific update pushes before
// arrival (LH: u, LU/EU: 2u) or the EI loser-to-winner diff flushes (v).

const barrierMaster = 0

// eiPage describes one page modified during an EI barrier episode: the set
// of modifiers and the designated winner, the only processor that retains a
// valid copy ("the master designates one processor as the winner for each
// page ... the losers forward their modifications to the winner and
// invalidate their local copies").
type eiPage struct {
	pg     page.ID
	mods   uint64
	winner int
}

// departInfo is the consistency content of a barrier departure.
type departInfo struct {
	vt      vc.VC
	recs    []*intervalRec
	eiPages []eiPage
	episode int64
}

// barrierEpisode is the master-side state of the in-progress barrier.
type barrierEpisode struct {
	n       int
	arrived int
	recs    []*intervalRec
	seen    map[int64]bool
	vt      vc.VC
	eiMods  map[page.ID]uint64
	baseVT  vc.VC // joined VT as of the previous departure
	episode int64
}

func (b *barrierEpisode) reset(n int) {
	b.n = n
	b.arrived = 0
	b.recs = nil
	b.seen = make(map[int64]bool)
	b.vt = vc.New(n)
	b.eiMods = make(map[page.ID]uint64)
	if b.baseVT == nil {
		b.baseVT = vc.New(n)
	}
}

// Barrier joins the global barrier. All processors must call it; the id
// identifies the barrier variable for the application's bookkeeping only
// (episodes are global synchronization points).
func (p *Proc) Barrier(id int) {
	if id < 0 || id >= p.sys.nbars {
		panic(fmt.Sprintf("core: barrier %d out of range", id))
	}
	s := p.sys
	p.sp.Interact()
	start := p.sp.Clock()
	s.stats.BarrierEpisodes++
	if s.trace.Enabled() {
		s.trace.Add(start, p.id, trace.BarrierArrive, int32(id), -1)
	}

	// Protocol-specific pre-arrival work (closing the interval, pushing
	// updates, preparing EI loser diffs). May advance the clock and block.
	arr := s.prot.barrierPush(p)
	arr.src = p.id

	if p.id == barrierMaster {
		// Process the master's own arrival as an event so the master is
		// parked before departures (or flushes) try to wake it.
		at := p.sp.Clock()
		s.eng.Schedule(at, func() { s.barrierArrive(arr) })
	} else {
		m := &msg{kind: mBarArrive, src: p.id, dst: barrierMaster,
			class: ClassSync, attr: attrBarrier, recs: arr.recs, vt: []int32(arr.vt)}
		if arr.eiPages != nil {
			m.pgs = arr.eiPages
		}
		p.sendFromProc(m)
	}
	p.sp.Block()
	d := p.sp.Clock() - start
	s.stats.BarrierWaitCycles += d
	p.pstats.BarrierWait += d
}

// arrival is the consistency content of a barrier arrival.
type arrival struct {
	src     int
	recs    []*intervalRec
	vt      vc.VC
	eiPages []page.ID
}

// handleBarArrive unmarshals a remote arrival at the master.
func (s *System) handleBarArrive(m *msg) {
	s.barrierArrive(&arrival{src: m.src, recs: m.recs, vt: vc.VC(m.vt), eiPages: m.pgs})
}

// barrierArrive accumulates one arrival; the last one triggers departures.
func (s *System) barrierArrive(a *arrival) {
	b := &s.bar
	b.arrived++
	for _, r := range a.recs {
		k := recKey(r.proc, r.idx)
		if !b.seen[k] {
			b.seen[k] = true
			b.recs = append(b.recs, r)
		}
	}
	if a.vt != nil {
		b.vt.Join(a.vt)
	}
	for _, pg := range a.eiPages {
		b.eiMods[pg] |= 1 << uint(a.src)
	}
	if b.arrived < b.n {
		return
	}

	b.episode++
	d := &departInfo{vt: b.vt.Clone(), recs: b.recs, episode: b.episode}
	if len(b.eiMods) > 0 {
		pgs := make([]page.ID, 0, len(b.eiMods))
		for pg := range b.eiMods {
			pgs = append(pgs, pg)
		}
		sort.Slice(pgs, func(i, j int) bool { return pgs[i] < pgs[j] })
		for _, pg := range pgs {
			mods := b.eiMods[pg]
			// Designate the winner among processors whose copy is valid
			// right now: every processor is blocked at the barrier at this
			// instant, so validity is frozen. A modifier can have been
			// invalidated between its last write and the barrier by a
			// concurrent lock release on a falsely shared page, so the
			// lowest-id valid holder (preferring modifiers) wins; the
			// winner's departure is delivered before any post-barrier
			// invalidation can reach it, so it claims winnerhood valid.
			winner := -1
			for w := 0; w < b.n; w++ {
				if mods&(1<<uint(w)) != 0 && s.procs[w].pages[pg].valid {
					winner = w
					break
				}
			}
			if winner < 0 {
				for w := 0; w < b.n; w++ {
					if s.procs[w].pages[pg].valid {
						winner = w
						break
					}
				}
			}
			if winner < 0 {
				// no valid copy anywhere would be a protocol bug
				for w := 0; w < b.n; w++ {
					if mods&(1<<uint(w)) != 0 {
						winner = w
						break
					}
				}
			}
			d.eiPages = append(d.eiPages, eiPage{pg: pg, mods: mods, winner: winner})
		}
	}
	b.baseVT = d.vt.Clone()
	b.reset(b.n)
	b.baseVT = d.vt.Clone()

	for i := 0; i < s.cfg.Procs; i++ {
		if i == barrierMaster {
			continue
		}
		s.sendFromHandler(&msg{kind: mBarDepart, src: barrierMaster, dst: i,
			class: ClassSync, attr: attrBarrier, depart: d})
	}
	// The master's own departure is local.
	mp := s.procs[barrierMaster]
	s.obsBarrierDeparted(mp.id, d)
	s.prot.applyDepart(mp, d, mp.wake)
}

// handleBarDepart performs the departure (acquire) at a processor.
func (s *System) handleBarDepart(p *Proc, m *msg) {
	if s.trace.Enabled() {
		s.trace.Add(s.eng.Now(), p.id, trace.BarrierDepart, int32(m.depart.episode), -1)
	}
	s.obsBarrierDeparted(p.id, m.depart)
	s.prot.applyDepart(p, m.depart, p.wake)
}
