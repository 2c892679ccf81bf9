package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"lrcdsm/internal/cachesim"
	"lrcdsm/internal/page"
	"lrcdsm/internal/sim"
	"lrcdsm/internal/trace"
	"lrcdsm/internal/vc"
)

// pageState is one processor's view of one shared page.
type pageState struct {
	data  page.Buf // local copy; nil until first fetched (or owner's initial copy)
	twin  page.Buf // non-nil while dirty in the current interval
	valid bool

	// copyVT[w] is the contiguous base of writer w's incorporated diffs:
	// every noticed interval of w with index <= copyVT[w] is applied.
	// Intervals can arrive and apply out of order (a barrier push or grant
	// can carry a later interval before its predecessors' notices), so
	// indices applied above the base live in extraApplied until the gap
	// closes (lazy protocols).
	copyVT       []int32
	extraApplied [][]int32
	// coverVC is the join of the vector times of everything reflected in
	// the copy (applied diffs and adopted full copies); adoptVC is the
	// portion adopted wholesale from page replies, whose content is
	// complete even for intervals we have no records of.
	coverVC vc.VC
	adoptVC vc.VC
	// notices[w] lists interval indices of writer w with write notices on
	// this page, sorted ascending (lazy protocols).
	notices [][]int32

	// copyset is the (approximate) set of processors believed to cache this
	// page, as a bitmask.
	copyset uint64

	// lastWriterHint is the most recent processor known to have modified
	// the page (EI miss forwarding); -1 when unknown.
	lastWriterHint int32
}

func (ps *pageState) ensureCopyVT(n int) {
	if ps.copyVT == nil {
		ps.copyVT = make([]int32, n)
	}
}

func (ps *pageState) ensureNotices(n int) {
	if ps.notices == nil {
		ps.notices = make([][]int32, n)
	}
}

// applied reports whether writer w's interval idx is incorporated in the
// local copy.
func (ps *pageState) applied(w int, idx int32) bool {
	if ps.copyVT != nil && idx <= ps.copyVT[w] {
		return true
	}
	if ps.extraApplied == nil {
		return false
	}
	for _, x := range ps.extraApplied[w] {
		if x == idx {
			return true
		}
	}
	return false
}

// markApplied records that writer w's interval idx is incorporated.
// Implemented on Proc (not pageState) because safe promotion of the
// contiguous base needs the processor's vector time: below vt[w] the notice
// set for w is provably complete (interval records travel with vector-time
// joins), so the base may advance through un-noticed indices there; above
// it an unknown interval could still arrive, so applied indices stay in the
// overflow list.
func (p *Proc) markApplied(pg page.ID, w int, idx int32) {
	n := p.nprocs()
	ps := &p.pages[pg]
	ps.ensureCopyVT(n)
	if idx <= ps.copyVT[w] {
		return
	}
	if ps.extraApplied == nil {
		ps.extraApplied = make([][]int32, n)
	}
	xs := ps.extraApplied[w]
	pos := len(xs)
	dup := false
	for i, x := range xs {
		if x == idx {
			dup = true
			break
		}
		if x > idx {
			pos = i
			break
		}
	}
	if !dup {
		xs = append(xs, 0)
		copy(xs[pos+1:], xs[pos:])
		xs[pos] = idx
		ps.extraApplied[w] = xs
	}
	p.promoteApplied(pg, w)
}

// promoteApplied advances writer w's contiguous applied base on page pg as
// far as the processor's knowledge allows.
func (p *Proc) promoteApplied(pg page.ID, w int) {
	ps := &p.pages[pg]
	if ps.copyVT == nil || ps.extraApplied == nil {
		return
	}
	limit := p.vt.Get(w)
	if limit <= ps.copyVT[w] {
		return
	}
	inExtra := func(i int32) bool {
		for _, x := range ps.extraApplied[w] {
			if x == i {
				return true
			}
		}
		return false
	}
	newBase := limit
	if ps.notices != nil {
		for _, ni := range noticesAbove(ps.notices[w], ps.copyVT[w]) {
			if ni > limit {
				break
			}
			if inExtra(ni) {
				continue
			}
			// first unapplied noticed interval blocks the base just below it
			newBase = ni - 1
			break
		}
	}
	if newBase <= ps.copyVT[w] {
		return
	}
	ps.copyVT[w] = newBase
	keep := ps.extraApplied[w][:0]
	for _, x := range ps.extraApplied[w] {
		if x > newBase {
			keep = append(keep, x)
		}
	}
	ps.extraApplied[w] = keep
}

// procLockState is one processor's view of one lock in the distributed
// queue: whether it holds the token, whether the application holds the
// lock, and the single queued requester forwarded to it by the manager.
type procLockState struct {
	present bool
	held    bool
	nextReq int
	nextVT  vc.VC
	// queue holds waiters at the manager in centralized-lock mode.
	queue []lockWaiter
}

// lockWaiter is a queued lock requester (centralized-lock ablation).
type lockWaiter struct {
	req int
	vt  vc.VC
}

// fetchOp tracks an in-progress access-miss or acquire-time diff fetch.
type fetchOp struct {
	pg       page.ID
	pending  int
	gotData  []byte
	gotVT    []int32
	gotCover []int32
	gotCS    uint64
	diffs    []taggedDiff
	rounds   int
	attr     attr
	blocked  bool  // processor blocked waiting for this fetch
	poisoned bool  // page was invalidated/updated while the fetch was in flight
	token    int64 // correlation for replies (bumped on poisoned retries)
	onDone   func()
}

// flushOp tracks an in-progress eager flush (updates or invalidations with
// acknowledgements, possibly over multiple rounds as copysets close).
type flushOp struct {
	pending int
	// tds holds flushModified's diffs, one per page and one update message
	// per (page, target). sentTo[i] is the set of processors already sent
	// tds[i]'s page; readded[i] those that re-joined its copyset (fetched
	// through us) after the flush began, which must survive the
	// completion-time removal of invalidated members.
	tds        []taggedDiff
	sentTo     []uint64
	readded    []uint64
	invalidate bool
	attr       attr
}

// slot returns the index of pg in the flush, or -1 if it is not flushed.
func (fl *flushOp) slot(pg page.ID) int {
	return slices.IndexFunc(fl.tds, func(td taggedDiff) bool { return td.pg == pg })
}

// Proc is a simulated processor with its DSM state. Application workers
// receive a *Proc and perform all shared-memory and synchronization
// operations through it.
type Proc struct {
	id    int
	sys   *System
	sp    *sim.Proc
	cache *cachesim.Cache
	wake  func() // makes the blocked processor runnable at the current time

	pages      []pageState // one per allocated page, sized when the system runs
	vt         vc.VC
	recsByProc [][]*intervalRec // known interval records per creator, by index
	recByKey   map[int64]*intervalRec
	modList    []page.ID

	eagerEpoch int32
	pushedUpTo int32 // own interval index already pushed at a barrier (LH/LU)

	locks []procLockState

	fetch      *fetchOp
	luFetch    *luFetchOp
	flush      *flushOp
	fetchToken int64

	// EI barrier state: diffs to forward if designated a loser, expected
	// loser flushes per page when designated a winner (page requests are
	// deferred until the merge completes), and flushes that arrived before
	// our own departure (tracked per barrier episode).
	eiLoserDiffs     []taggedDiff
	eiFlushPending   map[page.ID]int
	eiEarlyFlush     map[page.ID]int
	eiEarlyEpisode   int64
	eiFlushTotal     int
	deferredPageReqs []*msg
	barWaiting       bool

	// per-processor accounting
	pstats ProcStats

	// episodeSeen is the latest barrier episode this processor has departed
	// (eager protocols). A page request from a processor that already
	// departed a later episode must not be served from our stale copy; it
	// is deferred until our own departure (deferredEpisodeReqs).
	episodeSeen         int64
	deferredEpisodeReqs []*msg
}

// acquireFlushTokens blocks until this processor holds the system-wide
// flush token of every listed page, preventing two invalidation flushes on
// the same page from racing. All-or-nothing acquisition (no hold-and-wait),
// so no deadlock is possible.
func (p *Proc) acquireFlushTokens(pgs []page.ID) {
	s := p.sys
	for {
		busy := page.ID(-1)
		for _, pg := range pgs {
			if _, held := s.flushBusy[pg]; held {
				busy = pg
				break
			}
		}
		if busy < 0 {
			for _, pg := range pgs {
				s.flushBusy[pg] = p.id
			}
			return
		}
		s.flushWaiters[busy] = append(s.flushWaiters[busy], p)
		p.sp.Block()
	}
}

// releaseFlushTokens frees the pages' flush tokens, retries waiting
// flushers, and replays page requests the owner deferred during the flush.
func (p *Proc) releaseFlushTokens(pgs []page.ID) {
	s := p.sys
	at := p.sp.Clock()
	for _, pg := range pgs {
		delete(s.flushBusy, pg)
		if reqs := s.flushDeferred[pg]; len(reqs) > 0 {
			delete(s.flushDeferred, pg)
			owner := s.procs[s.pageOwner(pg)]
			for _, m := range reqs {
				s.prot.handlePageReq(owner, m)
			}
		}
		ws := s.flushWaiters[pg]
		if len(ws) == 0 {
			continue
		}
		delete(s.flushWaiters, pg)
		for _, w := range ws {
			w.sp.Wake(at)
		}
	}
}

func newProc(s *System, id int) *Proc {
	p := &Proc{
		id:         id,
		sys:        s,
		sp:         s.eng.Procs()[id],
		vt:         vc.New(s.cfg.Procs),
		recByKey:   make(map[int64]*intervalRec),
		recsByProc: make([][]*intervalRec, s.cfg.Procs),
	}
	p.wake = func() { p.sp.Wake(s.eng.Now()) }
	if s.cfg.CacheBytes > 0 {
		p.cache = cachesim.New(s.cfg.CacheBytes, s.cfg.CacheLine, 1, s.cfg.MemLatencyCycles)
	} else {
		p.cache = cachesim.New(64, 64, 1, 0)
	}
	// Locks are allocated before Run; size lazily at Run. To keep the
	// zero-value usable we allocate when the system starts (see Run), but
	// workers may also reference locks allocated later, so allocate for the
	// maximum now if known.
	return p
}

func (p *Proc) nprocs() int { return p.sys.cfg.Procs }

// ID returns the processor's id, in [0, N).
func (p *Proc) ID() int { return p.id }

// N returns the number of processors in the system.
func (p *Proc) N() int { return p.sys.cfg.Procs }

// Clock returns the processor's local virtual time in cycles.
func (p *Proc) Clock() sim.Time { return p.sp.Clock() }

// Compute charges n cycles of private computation.
func (p *Proc) Compute(n int64) { p.sp.Advance(sim.Time(n)) }

// Backoff charges a futile poll's back-off exactly like Compute.
func (p *Proc) Backoff(n int64) { p.Compute(n) }

func (p *Proc) chargeDiffCreation() {
	c := p.sys.cfg.diffCreationCycles()
	p.sys.stats.DiffCycles += c
	p.sys.stats.DiffsCreated++
	p.sp.Advance(c)
}

// ---- shared-memory access ----

func (p *Proc) access(a Addr, write bool) (*pageState, int) {
	pg := p.sys.pageOf(a)
	if int(pg) >= p.sys.npages || a < 0 {
		panic(fmt.Sprintf("core: address %d out of range", a))
	}
	ps := &p.pages[pg]
	if !ps.valid {
		p.miss(pg)
	}
	p.sp.Advance(p.cache.Access(int64(a)))
	if write {
		if ps.twin == nil {
			ps.twin = page.NewTwin(ps.data)
			p.modList = append(p.modList, pg)
			p.sys.stats.TwinsCreated++
			p.sys.obsTwinCreated(p.id, pg)
		}
		p.sys.stats.SharedWrites++
	} else {
		p.sys.stats.SharedReads++
		if p.sys.cfg.DebugCheckReads {
			off := int(a) & (p.sys.cfg.PageSize - 1)
			want := p.sys.oraclePage(pg).U64(off)
			if got := ps.data.U64(off); got != want {
				panic(fmt.Sprintf("core: debug: proc %d reads stale word addr=%d page=%d off=%d t=%d got=%x want=%x satisfied=%v copyVT=%v notices=%v",
					p.id, a, pg, off, p.sp.Clock(), got, want, p.noticesSatisfied(pg), ps.copyVT, ps.notices))
			}
		}
	}
	return ps, int(a) & (p.sys.cfg.PageSize - 1)
}

// ReadF64 reads a shared float64.
func (p *Proc) ReadF64(a Addr) float64 {
	ps, off := p.access(a, false)
	return ps.data.F64(off)
}

// WriteF64 writes a shared float64.
func (p *Proc) WriteF64(a Addr, v float64) { p.WriteU64(a, math.Float64bits(v)) }

// ReadI64 reads a shared int64.
func (p *Proc) ReadI64(a Addr) int64 { return int64(p.ReadU64(a)) }

// WriteI64 writes a shared int64.
func (p *Proc) WriteI64(a Addr, v int64) { p.WriteU64(a, uint64(v)) }

// ReadU64 reads a shared raw word.
func (p *Proc) ReadU64(a Addr) uint64 {
	ps, off := p.access(a, false)
	return ps.data.U64(off)
}

// WriteU64 writes a shared raw word.
func (p *Proc) WriteU64(a Addr, v uint64) {
	ps, off := p.access(a, true)
	ps.data.PutU64(off, v)
	// Mirror into the oracle image: conflicting writes of data-race-free
	// programs reach here in happened-before order, so the oracle holds the
	// true final memory state for validation.
	p.sys.oraclePage(p.sys.pageOf(a)).PutU64(off, v)
}

// miss resolves an access fault on pg through the protocol. On return the
// page is valid. Runs in processor context and blocks.
func (p *Proc) miss(pg page.ID) {
	if p.sys.trace.Enabled() {
		p.sys.trace.Add(p.sp.Clock(), p.id, trace.PageFault, int32(pg), -1)
	}
	start := p.sp.Clock()
	defer func() {
		d := p.sp.Clock() - start
		p.sys.stats.MissWaitCycles += d
		p.pstats.MissWait += d
		p.pstats.Misses++
	}()
	for tries := 0; ; tries++ {
		p.sp.Interact()
		p.sys.stats.AccessMisses++
		p.sys.prot.handleMiss(p, pg)
		if p.pages[pg].valid {
			return
		}
		// An invalidation can land between fetch completion and this
		// processor resuming; refault, as a real DSM would.
		if tries > 64 {
			panic(fmt.Sprintf("core: proc %d: page %d cannot be made valid", p.id, pg))
		}
	}
}

// pageAddr returns the base byte address of a page.
func (p *Proc) pageAddr(pg page.ID) int64 { return int64(pg) << p.sys.pageShift }

// canApply reports whether the diff's happened-before predecessors on this
// page are all incorporated in the local copy. Applying a diff before an
// older one it dominates would let the older one later clobber its words,
// so application strictly follows happened-before order per page.
func (p *Proc) canApply(td taggedDiff) bool {
	ps := &p.pages[td.pg]
	if ps.notices == nil {
		return true
	}
	for w := 0; w < p.nprocs(); w++ {
		ns := ps.notices[w]
		if len(ns) == 0 {
			continue
		}
		limit := td.rec.vt.Get(w)
		if w == td.rec.proc {
			limit = td.rec.idx - 1
		}
		var base int32
		if ps.copyVT != nil {
			base = ps.copyVT[w]
		}
		// every noticed interval of w at or below the limit must be applied
		// (everything at or below the contiguous base already is)
		for _, ni := range noticesAbove(ns, base) {
			if ni > limit {
				break
			}
			if !ps.applied(w, ni) {
				return false
			}
		}
	}
	return true
}

// applyTagged applies a received diff to the local copy (and to the twin if
// the page is dirty, so that locally created diffs keep describing only
// local writes), updating the copy timestamp. It reports whether the diff
// was (or already had been) incorporated; false means a happened-before
// predecessor is still missing and the diff must be retried after it
// arrives.
func (p *Proc) applyTagged(td taggedDiff) bool {
	ps := &p.pages[td.pg]
	if ps.data == nil {
		// Not a cacher: the data cannot be incorporated, so the copy
		// timestamp must not advance (a later fetch still needs this diff).
		return false
	}
	ps.ensureCopyVT(p.nprocs())
	if ps.applied(td.rec.proc, td.rec.idx) {
		return true // already incorporated
	}
	if ps.adoptVC != nil && ps.adoptVC.Covers(td.rec.vt) {
		// The adopted copy already reflects a state that includes this
		// interval; applying its (older) words would regress newer ones.
		p.markApplied(td.pg, td.rec.proc, td.rec.idx)
		p.sys.obsDiffApplied(p.id, td)
		return true
	}
	if !p.canApply(td) {
		return false
	}
	redo := p.dominators(td)
	d := td.diff()
	d.Apply(ps.data)
	if ps.twin != nil {
		d.Apply(ps.twin)
	}
	if p.sys.trace.Enabled() {
		p.sys.trace.Add(p.sys.eng.Now(), p.id, trace.DiffApplied, int32(td.pg), td.rec.proc)
	}
	p.cache.InvalidateRange(p.pageAddr(td.pg), p.sys.cfg.PageSize)
	p.markApplied(td.pg, td.rec.proc, td.rec.idx)
	if ps.coverVC == nil {
		ps.coverVC = vc.New(p.nprocs())
	}
	ps.coverVC.Join(td.rec.vt)
	p.sys.stats.DiffsApplied++
	p.sys.obsDiffApplied(p.id, td)
	// Updates pushed at barriers can arrive in any order, so td may have
	// landed after a newer diff that overwrote the same words: re-applying
	// the dominating diffs restores their values (concurrent diffs of
	// data-race-free programs touch disjoint words and need no repair).
	for _, r := range redo {
		d := r.diff()
		d.Apply(ps.data)
		if ps.twin != nil {
			d.Apply(ps.twin)
		}
	}
	return true
}

// dominators returns, in happened-before order, every diff already
// incorporated in the local copy of td's page whose interval had seen td's
// when it wrote. Call before td is incorporated.
func (p *Proc) dominators(td taggedDiff) []taggedDiff {
	ps := &p.pages[td.pg]
	// The vector time of everything incorporated is folded into coverVC,
	// so an interval that has seen td shows there. Diffs mostly arrive in
	// happened-before order, and then none has.
	if ps.coverVC == nil || !ps.coverVC.CoversInterval(td.rec.proc, td.rec.idx) {
		return nil
	}
	var redo []taggedDiff
	for w, ns := range ps.notices {
		// A writer's vector times only grow, so its intervals that have
		// seen td are those from some index on.
		rs := p.recsByProc[w]
		first := sort.Search(len(rs), func(i int) bool {
			return rs[i].vt.CoversInterval(td.rec.proc, td.rec.idx)
		})
		if first == len(rs) {
			continue
		}
		for _, i := range noticesAbove(ns, rs[first].idx-1) {
			if !ps.applied(w, i) {
				continue // not yet incorporated (td itself among them)
			}
			rec := p.recByKey[recKey(w, i)]
			if rec.vt.Covers(td.rec.vt) {
				redo = append(redo, rec.tag(td.pg))
			}
		}
	}
	sortDiffsHB(redo)
	return redo
}

// applyBatch applies a set of diffs in happened-before order, iterating to
// a fixpoint so that diffs unlocked by earlier applications are also
// incorporated. Diffs whose predecessors are absent from the batch remain
// unapplied (their pages stay unsatisfied and are fetched on demand).
func (p *Proc) applyBatch(tds []taggedDiff) {
	sortDiffsHB(tds)
	for progress := true; progress; {
		progress = false
		for _, td := range tds {
			ps := &p.pages[td.pg]
			if ps.data == nil {
				continue
			}
			if ps.applied(td.rec.proc, td.rec.idx) {
				continue
			}
			if p.applyTagged(td) {
				progress = true
			}
		}
	}
}

// noticesSatisfied reports whether every write notice known for pg has been
// incorporated into the local copy.
func (p *Proc) noticesSatisfied(pg page.ID) bool {
	ps := &p.pages[pg]
	if ps.notices == nil {
		return true
	}
	for w := 0; w < p.nprocs(); w++ {
		var base int32
		if ps.copyVT != nil {
			base = ps.copyVT[w]
		}
		for _, ni := range noticesAbove(ps.notices[w], base) {
			if !ps.applied(w, ni) {
				return false
			}
		}
	}
	return true
}

// ---- fetch machinery (access misses, LU acquire fetches) ----

// startFetch issues the page/diff requests described by the plan and blocks
// the processor (onDone == nil) or defers completion to onDone (handler
// context, LU acquire).
func (p *Proc) startFetch(pg page.ID, needCopy bool, a attr, onDone func()) {
	p.fetchToken++
	f := &fetchOp{pg: pg, attr: a, onDone: onDone, token: p.fetchToken}
	p.fetch = f
	lms := p.lastModifiers(pg)
	ps := &p.pages[pg]

	if needCopy {
		// Ask the best-informed last modifier (or the owner) for the page.
		target := p.sys.pageOwner(pg)
		var bestRec *intervalRec
		var bestSum int64 = -1
		for _, r := range lms {
			if s := r.vt.Sum(); s > bestSum {
				bestSum = s
				bestRec = r
				target = r.proc
			}
		}
		if target == p.id {
			panic(fmt.Sprintf("core: proc %d fetching page %d from itself", p.id, pg))
		}
		f.pending++
		p.sys.stats.PageFetches++
		p.sendOrHandlerSend(onDone == nil, &msg{
			kind: mPageReq, src: p.id, dst: target, class: ClassData, attr: a, pg: pg,
			token: f.token,
		})
		// Diffs from the other concurrent last modifiers, assuming the page
		// copy will cover what its server knew (any residual gap is closed
		// by the fallback round in completeFetchRound).
		for _, r := range lms {
			if r.proc == target || r.proc == p.id {
				continue
			}
			have := make([]int32, p.nprocs())
			for w := range have {
				have[w] = bestVTEntry(ps.copyVT, w)
				if bestRec != nil && bestRec.vt.Get(w) > have[w] {
					have[w] = bestRec.vt.Get(w)
				}
			}
			f.pending++
			p.sendOrHandlerSend(onDone == nil, &msg{
				kind: mDiffReq, src: p.id, dst: r.proc, class: ClassData, attr: a,
				pg: pg, vt: have, need: p.noticeMaxes(pg), token: f.token,
			})
		}
	} else {
		// Have a copy (possibly invalid): only diffs are needed. Query the
		// concurrent last modifiers; each can serve every diff that
		// happened-before its own modification.
		for _, r := range lms {
			if r.proc == p.id {
				continue
			}
			have := make([]int32, p.nprocs())
			copy(have, ps.copyVT)
			f.pending++
			p.sendOrHandlerSend(onDone == nil, &msg{
				kind: mDiffReq, src: p.id, dst: r.proc, class: ClassData, attr: a,
				pg: pg, vt: have, need: p.noticeMaxes(pg), token: f.token,
			})
		}
		if f.pending == 0 && !p.noticesSatisfied(pg) {
			// Every last modifier is this processor itself (its own later
			// write dominates), yet earlier concurrent diffs are missing —
			// ask each missing interval's creator directly.
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
				hv := make([]int32, p.nprocs())
				if ps.copyVT != nil {
					copy(hv, ps.copyVT)
				}
				f.pending++
				p.sendOrHandlerSend(onDone == nil, &msg{
					kind: mDiffReq, src: p.id, dst: w, class: ClassData, attr: a,
					pg: pg, vt: hv, need: p.noticeMaxes(pg), token: f.token,
				})
			}
		}
	}
	if f.pending == 0 {
		// Nothing to fetch: all notices already satisfied.
		p.finishFetch()
		return
	}
	if onDone == nil {
		f.blocked = true
		p.sp.Block()
	}
}

// hasAllFrom reports whether the local copy already covers every noticed
// interval up to and including rec for its writer.
func (p *Proc) hasAllFrom(pg page.ID, rec *intervalRec) bool {
	ps := &p.pages[pg]
	return ps.copyVT != nil && ps.copyVT[rec.proc] >= rec.idx
}

func bestVTEntry(v []int32, w int) int32 {
	if v == nil {
		return 0
	}
	return v[w]
}

// sendOrHandlerSend picks the correct send path for the current context.
func (p *Proc) sendOrHandlerSend(procCtx bool, m *msg) {
	if procCtx {
		p.sendFromProc(m)
	} else {
		p.sys.sendFromHandler(m)
	}
}

// handleFetchReply processes a page or diff reply for the in-progress fetch.
func (p *Proc) handleFetchReply(m *msg) {
	f := p.fetch
	if f == nil || f.pg != m.pg {
		panic(fmt.Sprintf("core: proc %d unexpected fetch reply for page %d", p.id, m.pg))
	}
	if m.token != f.token {
		// Stale reply from before a poisoned retry.
		if m.kind == mPageReply {
			page.FreeTwin(m.data)
		}
		return
	}
	if m.kind == mPageReply {
		f.gotData = m.data
		f.gotVT = m.vt
		f.gotCover = m.coverVT
		f.gotCS = m.copyset
	}
	f.diffs = append(f.diffs, m.diffs...)
	f.pending--
	if f.pending > 0 {
		return
	}
	p.completeFetchRound()
}

// completeFetchRound applies everything received; if notices remain
// unsatisfied it launches a fallback round asking each missing diff's
// creator directly (whose own diffs are always available).
func (p *Proc) completeFetchRound() {
	f := p.fetch
	ps := &p.pages[f.pg]
	if f.gotData != nil {
		if ps.data == nil {
			ps.data = f.gotData // the image becomes the page
		} else if ps.twin == nil {
			copy(ps.data, f.gotData)
			page.FreeTwin(f.gotData)
		} else {
			// Refetch over a dirty page (eager write fault after an
			// invalidation): rebase our uncommitted words onto the fresh
			// copy, which becomes the new twin.
			own := page.MakeDiff(f.pg, ps.twin, ps.data)
			copy(ps.data, f.gotData)
			copy(ps.twin, f.gotData)
			page.FreeTwin(f.gotData)
			own.Apply(ps.data)
		}
		ps.ensureCopyVT(p.nprocs())
		if f.gotVT != nil {
			for w, idx := range f.gotVT {
				if idx > ps.copyVT[w] {
					ps.copyVT[w] = idx
				}
			}
		}
		if f.gotCover != nil {
			ps.adoptVC = vc.VC(f.gotCover).Clone()
			if ps.coverVC == nil {
				ps.coverVC = vc.New(p.nprocs())
			}
			ps.coverVC.Join(ps.adoptVC)
		}
		ps.copyset |= f.gotCS | 1<<uint(p.id)
		p.sys.obsCopyAdopted(p.id, f.pg, f.gotVT, f.gotCover)
		f.gotData = nil
		p.cache.InvalidateRange(p.pageAddr(f.pg), p.sys.cfg.PageSize)
	}
	// Diffs travel with their interval records (a server can return diffs
	// beyond the requester's knowledge): install the notices first so
	// ordering, repair and validity checks see them.
	for _, td := range f.diffs {
		p.insertRec(td.rec)
	}
	p.applyBatch(f.diffs)
	f.diffs = nil
	if !p.noticesSatisfied(f.pg) && p.sys.cfg.Protocol.Lazy() {
		f.rounds++
		if f.rounds > 8 {
			var detail string
			for w := 0; w < p.nprocs(); w++ {
				for _, ni := range ps.notices[w] {
					if !ps.applied(w, ni) {
						rec := p.recByKey[recKey(w, ni)]
						detail += fmt.Sprintf(" missing=(%d,%d) vt=%v canApply=%v", w, ni, rec.vt, p.canApply(rec.tag(f.pg)))
					}
				}
			}
			panic(fmt.Sprintf("core: proc %d cannot satisfy notices for page %d:%s", p.id, f.pg, detail))
		}
		// Fallback: ask each missing interval's creator directly.
		sent := uint64(0)
		for w := 0; w < p.nprocs(); w++ {
			ns := ps.notices[w]
			if len(ns) == 0 || w == p.id {
				continue
			}
			if ns[len(ns)-1] > ps.copyVT[w] && sent&(1<<uint(w)) == 0 {
				sent |= 1 << uint(w)
				have := make([]int32, p.nprocs())
				copy(have, ps.copyVT)
				f.pending++
				p.sys.sendFromHandler(&msg{
					kind: mDiffReq, src: p.id, dst: w, class: ClassData, attr: f.attr,
					pg: f.pg, vt: have, need: p.noticeMaxes(f.pg), token: f.token,
				})
			}
		}
		if f.pending > 0 {
			return
		}
	}
	p.finishFetch()
}

// finishFetch validates the page and resumes the processor (or invokes the
// deferred completion). When the fetch completed synchronously in processor
// context, the processor never blocked and needs no wake. A fetch poisoned
// by a concurrent eager invalidation/update retries instead of installing a
// possibly stale copy.
func (p *Proc) finishFetch() {
	f := p.fetch
	if f.poisoned && !p.sys.cfg.Protocol.Lazy() {
		f.poisoned = false
		f.pending = 1
		f.gotData = nil
		f.diffs = nil
		p.fetchToken++
		f.token = p.fetchToken
		p.sys.stats.PageFetches++
		p.sys.sendFromHandler(&msg{kind: mPageReq, src: p.id, dst: p.sys.pageOwner(f.pg),
			class: ClassData, attr: f.attr, pg: f.pg, episode: p.episodeSeen, token: f.token})
		return
	}
	p.fetch = nil
	ps := &p.pages[f.pg]
	ps.valid = true
	ps.copyset |= 1 << uint(p.id)
	if p.sys.trace.Enabled() {
		p.sys.trace.Add(p.sys.eng.Now(), p.id, trace.PageValid, int32(f.pg), -1)
	}
	if f.onDone != nil {
		f.onDone()
		return
	}
	if f.blocked {
		p.sp.Wake(p.sys.eng.Now())
	}
}

// ---- flush machinery (eager releases/barrier pushes, lazy barrier pushes) ----

// batchedPush sends all given diffs to every cacher in one message per
// target processor (the paper's barrier-push accounting: u counts target
// processors, not page-target pairs). Cachers the copysets miss simply
// fault later — the write notices travel with the barrier departure.
// Runs in processor context; blocks for acknowledgements when withAcks.
func (p *Proc) batchedPush(tds []taggedDiff, withAcks bool, a attr) {
	perTarget := make([][]taggedDiff, p.nprocs())
	var order []int
	for _, td := range tds {
		targets := p.pages[td.pg].copyset &^ (1 << uint(p.id))
		for w := 0; w < p.nprocs(); w++ {
			if targets&(1<<uint(w)) == 0 {
				continue
			}
			if perTarget[w] == nil {
				order = append(order, w)
			}
			perTarget[w] = append(perTarget[w], td)
		}
	}
	if len(order) == 0 {
		return
	}
	fl := &flushOp{attr: a}
	p.flush = fl
	for _, w := range order {
		group := perTarget[w]
		m := &msg{kind: mUpdate, src: p.id, dst: w, class: ClassData, attr: a,
			pg: -1, diffs: group, payload: diffsPayloadBytes(group), flag: withAcks}
		if withAcks {
			fl.pending++
		}
		p.sendFromProc(m)
	}
	if !withAcks || fl.pending == 0 {
		p.flush = nil
		return
	}
	start := p.sp.Clock()
	p.sp.Block()
	d := p.sp.Clock() - start
	p.sys.stats.FlushWaitCycles += d
	p.pstats.FlushWait += d
}

// startFlush sends the diffs (or invalidations) of flushModified's tagged
// diffs, one per page, to every processor in the page's copyset, tracking
// acknowledgements and extending to newly discovered cachers in further
// rounds. withAcks selects whether the operation blocks until acknowledged
// (EU/EI releases, EU barrier pushes) or is fire-and-forget. Runs in
// processor context.
func (p *Proc) startFlush(tds []taggedDiff, invalidate, withAcks bool, a attr) {
	fl := &flushOp{
		tds:        tds,
		sentTo:     make([]uint64, len(tds)),
		readded:    make([]uint64, len(tds)),
		invalidate: invalidate,
		attr:       a,
	}
	p.flush = fl
	for i, td := range tds {
		pg := td.pg
		targets := p.pages[pg].copyset &^ (1 << uint(p.id))
		if invalidate {
			// Always inform the page's owner so its last-writer hint stays
			// fresh — the owner is the serialization point for miss
			// forwarding, and stale hints could otherwise form cycles.
			if o := p.sys.pageOwner(pg); o != p.id {
				targets |= 1 << uint(o)
			}
		}
		fl.sentTo[i] = targets | 1<<uint(p.id)
		for w := 0; w < p.nprocs(); w++ {
			if targets&(1<<uint(w)) == 0 {
				continue
			}
			m := &msg{src: p.id, dst: w, class: ClassData, attr: a, pg: pg, flag: withAcks}
			if invalidate {
				m.kind = mInval
			} else {
				m.kind = mUpdate
				m.diffs = tds[i : i+1 : i+1]
				m.payload = td.diff().SizeBytes()
			}
			if withAcks {
				fl.pending++
			}
			p.sendFromProc(m)
		}
	}
	if !withAcks || fl.pending == 0 {
		p.flush = nil
		return
	}
	start := p.sp.Clock()
	p.sp.Block()
	d := p.sp.Clock() - start
	p.sys.stats.FlushWaitCycles += d
	p.pstats.FlushWait += d
}

// handleFlushAck processes an update/invalidation acknowledgement: unions
// the responder's copyset and starts another round for newly discovered
// cachers.
func (p *Proc) handleFlushAck(m *msg) {
	fl := p.flush
	if fl == nil {
		panic(fmt.Sprintf("core: proc %d unexpected flush ack", p.id))
	}
	if m.pg < 0 {
		// batched push acknowledgement: no per-page bookkeeping
		fl.pending--
		if fl.pending == 0 {
			p.flush = nil
			p.sp.Wake(p.sys.eng.Now())
		}
		return
	}
	ps := &p.pages[m.pg]
	// An EI invalidation ack may carry the target's flushed dirty words.
	for _, td := range m.diffs {
		d := td.diff()
		if ps.data != nil {
			d.Apply(ps.data)
			if ps.twin != nil {
				d.Apply(ps.twin)
			}
			p.cache.InvalidateRange(p.pageAddr(m.pg), p.sys.cfg.PageSize)
		}
	}
	if !fl.invalidate {
		ps.copyset |= m.copyset
	}
	// Another round for cachers we did not know about.
	i := fl.slot(m.pg)
	if more := (m.copyset &^ fl.sentTo[i]) &^ (1 << uint(p.id)); more != 0 && m.flag {
		fl.sentTo[i] |= more
		for w := 0; w < p.nprocs(); w++ {
			if more&(1<<uint(w)) == 0 {
				continue
			}
			mm := &msg{src: p.id, dst: w, class: ClassData, attr: fl.attr, pg: m.pg, flag: true}
			if fl.invalidate {
				mm.kind = mInval
			} else {
				mm.kind = mUpdate
				mm.diffs = fl.tds[i : i+1 : i+1]
				mm.payload = fl.tds[i].diff().SizeBytes()
			}
			fl.pending++
			p.sys.sendFromHandler(mm)
		}
	}
	fl.pending--
	if fl.pending == 0 {
		if fl.invalidate {
			// Remove exactly the processors we invalidated; anyone who
			// re-fetched (through the owner) after the flush began must
			// stay in the copyset or it would never be invalidated again.
			for i, td := range fl.tds {
				ps := &p.pages[td.pg]
				ps.copyset = (ps.copyset &^ (fl.sentTo[i] &^ fl.readded[i])) | 1<<uint(p.id)
			}
		}
		p.flush = nil
		p.sp.Wake(p.sys.eng.Now())
	}
}

// handleDiffReq serves a diff request: every diff this processor may serve
// for the page beyond the requester's coverage.
func (s *System) handleDiffReq(p *Proc, m *msg) {
	p.pages[m.pg].copyset |= 1 << uint(m.src) // "... and diff requests"
	ds := p.servableDiffs(m.pg, m.vt, m.need)
	s.sendFromHandler(&msg{
		kind: mDiffReply, src: p.id, dst: m.src, class: ClassData, attr: m.attr,
		pg: m.pg, diffs: ds, payload: diffsPayloadBytes(ds), token: m.token,
	})
}

// handleInval processes an EI invalidation: drop validity, flush dirty
// words back on the acknowledgement, and report our copyset.
func (s *System) handleInval(p *Proc, m *msg) {
	ps := &p.pages[m.pg]
	if s.trace.Enabled() {
		s.trace.Add(s.eng.Now(), p.id, trace.Invalidate, int32(m.pg), m.src)
	}
	if p.fetch != nil && p.fetch.pg == m.pg {
		// A reply in flight may predate this invalidation: poison the fetch
		// so it retries rather than installing a stale copy as valid.
		p.fetch.poisoned = true
	}
	ack := &msg{kind: mInvalAck, src: p.id, dst: m.src, class: ClassData, attr: m.attr,
		pg: m.pg, copyset: ps.copyset, flag: m.flag}
	if ps.data != nil && ps.valid {
		if ps.twin == nil {
			// Between barrier arrival and departure our pending diff lives
			// in the loser set; the invalidator must still learn our words.
			for _, td := range p.eiLoserDiffs {
				if td.pg == m.pg {
					ack.diffs = []taggedDiff{td}
					ack.payload = td.diff().SizeBytes()
					break
				}
			}
		}
		if ps.twin != nil {
			// Dirty under another lock (false sharing): flush our words to
			// the invalidator so they are not lost; keep the twin so our
			// release still publishes them.
			p.eagerEpoch++
			d := page.MakeDiff(m.pg, ps.twin, ps.data)
			rec := &intervalRec{proc: p.id, idx: p.eagerEpoch,
				pages: []page.ID{m.pg}, diffs: []page.Diff{d}}
			s.stats.DiffsCreated++
			s.stats.DiffCycles += s.cfg.diffCreationCycles()
			ack.diffs = []taggedDiff{{rec: rec, pg: m.pg}}
			ack.payload = d.SizeBytes()
		}
		ps.valid = false
	}
	// The invalidator is the freshest known writer even if our copy was
	// already invalid — stale hints would otherwise form forwarding cycles.
	ps.lastWriterHint = int32(m.src)
	ps.copyset = (1 << uint(m.src)) | (1 << uint(p.id))
	s.sendFromHandler(ack)
}

// handleDiffFlush applies an EI barrier loser's diff at the winner. The
// winner defers page-serving and its own departure until the merge of all
// expected loser diffs completes.
func (s *System) handleDiffFlush(p *Proc, m *msg) {
	ps := &p.pages[m.pg]
	for _, td := range m.diffs {
		d := td.diff()
		if ps.data != nil {
			d.Apply(ps.data)
			if ps.twin != nil {
				d.Apply(ps.twin)
			}
			p.cache.InvalidateRange(p.pageAddr(m.pg), s.cfg.PageSize)
		}
		s.stats.DiffsApplied++
	}
	if p.eiFlushPending != nil && p.eiFlushPending[m.pg] > 0 {
		p.eiFlushPending[m.pg]--
		p.eiFlushTotal--
		if p.eiFlushPending[m.pg] == 0 {
			p.serveDeferredPageReqs(m.pg)
		}
		if p.eiFlushTotal == 0 && p.barWaiting {
			p.barWaiting = false
			p.eiFlushPending = nil
			p.sp.Wake(s.eng.Now())
		}
		return
	}
	// Flush arrived before our own departure designated us winner; count it
	// against the episode it belongs to.
	if p.eiEarlyFlush == nil || p.eiEarlyEpisode != m.episode {
		p.eiEarlyFlush = make(map[page.ID]int)
		p.eiEarlyEpisode = m.episode
	}
	p.eiEarlyFlush[m.pg]++
}

// replayEpisodeReqs replays page requests deferred until this processor's
// barrier departure caught up with the requesters'.
func (p *Proc) replayEpisodeReqs() {
	if len(p.deferredEpisodeReqs) == 0 {
		return
	}
	reqs := p.deferredEpisodeReqs
	p.deferredEpisodeReqs = nil
	for _, m := range reqs {
		p.sys.prot.handlePageReq(p, m)
	}
}

// serveDeferredPageReqs replays page requests that were queued while a
// barrier merge on pg was incomplete.
func (p *Proc) serveDeferredPageReqs(pg page.ID) {
	var keep []*msg
	for _, m := range p.deferredPageReqs {
		if m.pg == pg {
			p.sys.prot.handlePageReq(p, m)
		} else {
			keep = append(keep, m)
		}
	}
	p.deferredPageReqs = keep
}

// noteCopysetJoin records that w (re-)joined the copyset of pg while a
// flush may be in progress, so flush completion does not erase it.
func (p *Proc) noteCopysetJoin(pg page.ID, w int) {
	p.pages[pg].copyset |= 1 << uint(w)
	if p.flush != nil && p.flush.invalidate {
		if i := p.flush.slot(pg); i >= 0 {
			p.flush.readded[i] |= 1 << uint(w)
		}
	}
}
