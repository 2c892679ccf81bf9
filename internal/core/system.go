package core

import (
	"fmt"
	"math"

	"lrcdsm/internal/network"
	"lrcdsm/internal/page"
	"lrcdsm/internal/sim"
	"lrcdsm/internal/trace"
)

// Addr is a byte address in the shared virtual address space.
type Addr int64

// System is one simulated DSM machine: a set of processors, a network, a
// shared page-based address space, and a consistency protocol. A System is
// used once: allocate and initialize shared memory, then call Run.
type System struct {
	cfg   Config
	eng   *sim.Engine
	net   network.Network
	procs []*Proc
	prot  protocolImpl

	pageShift uint
	npages    int        // pages in the allocated region; page state is sized to it at Run
	oracle    []page.Buf // authoritative final image, also the initial image; grows with brk

	brk      Addr
	nlocks   int
	nbars    int
	lockTail []int        // distributed-queue tail per lock, kept at the lock's owner
	ownerOf  []int32      // block page-ownership map, built at Run
	allocs   [][2]page.ID // page ranges of Alloc/AllocPage calls

	bar barrierEpisode

	// flushBusy serializes EI invalidation flushes per page: two releasers
	// concurrently invalidating the same (falsely shared) page would
	// otherwise invalidate each other and leave no valid copy anywhere.
	// Page requests reaching the owner during a flush are deferred until it
	// completes, so a fetch can never install a copy from a server the
	// flush has not reached yet.
	flushBusy     map[page.ID]int // token holder per page; absent = free
	flushWaiters  map[page.ID][]*Proc
	flushDeferred map[page.ID][]*msg

	trace *trace.Log
	obs   Observer

	// msgFree recycles delivered messages: a send copies its message into
	// a slot from here, and the slot returns once handled. One goroutine
	// runs the simulation at a time, so a plain slice will do.
	msgFree []*msg

	stats RunStats
	ran   bool
}

// Trace returns the protocol event log (enabled via Config.TraceCapacity).
func (s *System) Trace() *trace.Log { return s.trace }

// NewSystem builds a DSM system from the configuration.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:           cfg,
		net:           network.New(cfg.Net),
		eng:           sim.New(cfg.Procs),
		flushBusy:     make(map[page.ID]int),
		flushWaiters:  make(map[page.ID][]*Proc),
		flushDeferred: make(map[page.ID][]*msg),
		trace:         trace.New(cfg.TraceCapacity),
		obs:           cfg.Observer,
	}
	for ps := cfg.PageSize; ps > 1; ps >>= 1 {
		s.pageShift++
	}
	switch cfg.Protocol {
	case EI, EU:
		s.prot = &eagerProto{update: cfg.Protocol == EU}
	case LI, LU, LH:
		s.prot = &lazyProto{kind: cfg.Protocol}
	default:
		return nil, fmt.Errorf("core: unknown protocol %v", cfg.Protocol)
	}
	for i := 0; i < cfg.Procs; i++ {
		s.procs = append(s.procs, newProc(s, i))
	}
	s.stats.Protocol = cfg.Protocol
	s.stats.Procs = cfg.Procs
	return s, nil
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// pageOwner returns the statically assigned owner of a page. Ownership is
// assigned in contiguous blocks over the allocated region (set at Run),
// which approximates the first-touch/allocation-site assignment of real
// DSMs: a band-partitioned application mostly owns its own pages.
func (s *System) pageOwner(pg page.ID) int {
	if int(pg) < len(s.ownerOf) {
		return int(s.ownerOf[pg])
	}
	return int(pg) % s.cfg.Procs
}

// pageOf returns the page containing a.
func (s *System) pageOf(a Addr) page.ID { return page.ID(a >> s.pageShift) }

// Alloc reserves n bytes of shared memory (8-byte aligned) and returns the
// base address. Must be called before Run.
func (s *System) Alloc(n int) Addr {
	return s.allocAt((s.brk+7)&^7, n)
}

// allocAt moves the break to a+n and records the allocation's page range.
// Page state is sized from the break when Run starts, so the break cannot
// move afterwards.
func (s *System) allocAt(a Addr, n int) Addr {
	if s.ran {
		panic("core: Alloc after Run")
	}
	s.brk = a + Addr(n)
	if int(s.brk) > s.cfg.MaxSharedBytes {
		panic(fmt.Sprintf("core: shared memory exhausted (%d > %d)", s.brk, s.cfg.MaxSharedBytes))
	}
	s.allocs = append(s.allocs, [2]page.ID{s.pageOf(a), s.pageOf(s.brk - 1)})
	if s.brk > 0 {
		s.npages = int(s.pageOf(s.brk-1)) + 1
	}
	for len(s.oracle) < s.npages {
		s.oracle = append(s.oracle, nil)
	}
	return a
}

// AllocPage reserves n bytes starting on a fresh page boundary. Aligning
// unrelated data to page boundaries is how applications avoid gratuitous
// false sharing (and packing them together is how Water gets its
// characteristic false sharing).
func (s *System) AllocPage(n int) Addr {
	ps := Addr(s.cfg.PageSize)
	return s.allocAt((s.brk+ps-1)&^(ps-1), n)
}

// NewLock allocates a synchronization lock and returns its id. The lock's
// manager (static owner) is lock id mod processors.
func (s *System) NewLock() int {
	id := s.nlocks
	s.nlocks++
	return id
}

// NewLocks allocates n locks with consecutive ids and returns the first.
func (s *System) NewLocks(n int) int {
	id := s.nlocks
	s.nlocks += n
	return id
}

// NewBarrier allocates a global barrier and returns its id.
func (s *System) NewBarrier() int {
	id := s.nbars
	s.nbars++
	return id
}

func (s *System) oraclePage(pg page.ID) page.Buf {
	if s.oracle[pg] == nil {
		s.oracle[pg] = page.NewBuf(s.cfg.PageSize)
	}
	return s.oracle[pg]
}

// InitF64 stores a float64 into the initial shared-memory image. Must be
// called before Run; the contents become the pages' initial state.
func (s *System) InitF64(a Addr, v float64) { s.InitU64(a, math.Float64bits(v)) }

// InitI64 stores an int64 into the initial shared-memory image.
func (s *System) InitI64(a Addr, v int64) { s.InitU64(a, uint64(v)) }

// InitU64 stores a raw 8-byte word into the initial shared-memory image.
func (s *System) InitU64(a Addr, v uint64) {
	if s.ran {
		panic("core: Init after Run")
	}
	s.oraclePage(s.pageOf(a)).PutU64(int(a)&(s.cfg.PageSize-1), v)
}

// PeekF64 reads a float64 from the authoritative memory image. Before Run
// it returns the initial image; after Run, the final state of memory (every
// write performed by any processor, in happened-before order).
func (s *System) PeekF64(a Addr) float64 { return math.Float64frombits(s.PeekU64(a)) }

// PeekI64 reads an int64 from the authoritative memory image.
func (s *System) PeekI64(a Addr) int64 { return int64(s.PeekU64(a)) }

// PeekU64 reads a raw word from the authoritative memory image.
func (s *System) PeekU64(a Addr) uint64 {
	return s.oraclePage(s.pageOf(a)).U64(int(a) & (s.cfg.PageSize - 1))
}

// Run executes worker on every simulated processor and returns the run's
// statistics. The initial memory image is placed at each page's owner; all
// other processors start with no copies.
func (s *System) Run(worker func(*Proc)) (*RunStats, error) {
	if s.ran {
		return nil, fmt.Errorf("core: System already ran")
	}
	s.ran = true
	s.lockTail = make([]int, s.nlocks)
	for _, p := range s.procs {
		p.locks = make([]procLockState, s.nlocks)
		for i := range p.locks {
			p.locks[i].nextReq = -1
		}
	}
	for i := range s.lockTail {
		owner := i % s.cfg.Procs
		s.lockTail[i] = owner
		s.procs[owner].locks[i].present = true
	}
	s.bar.reset(s.cfg.Procs)
	s.placePages()
	err := s.eng.Run(func(sp *sim.Proc) {
		worker(s.procs[sp.ID])
	})
	if err != nil {
		return nil, err
	}
	for _, p := range s.procs {
		if p.sp.Clock() > s.stats.Cycles {
			s.stats.Cycles = p.sp.Clock()
		}
		s.stats.CacheHits += p.cache.Hits()
		s.stats.CacheMisses += p.cache.Misses()
		p.pstats.Cycles = p.sp.Clock()
		s.stats.PerProc = append(s.stats.PerProc, p.pstats)
	}
	s.stats.Network = *s.net.Stats()
	return &s.stats, nil
}

// placePages sizes every processor's page table to the allocated region
// (the break cannot move once the system runs, and an access beyond it is
// out of range), assigns block ownership over it, and places the initial
// copies at the owners.
func (s *System) placePages() {
	for _, p := range s.procs {
		p.pages = make([]pageState, s.npages)
		for i := range p.pages {
			p.pages[i].lastWriterHint = -1
		}
	}
	// Ownership is block-assigned within each allocation (first allocation
	// wins for pages shared by small allocations), so a band-partitioned
	// array is owned by the processors that use it.
	s.ownerOf = make([]int32, s.npages)
	for i := range s.ownerOf {
		s.ownerOf[i] = -1
	}
	for _, r := range s.allocs {
		span := int(r[1]-r[0]) + 1
		for pg := r[0]; pg <= r[1]; pg++ {
			if s.ownerOf[pg] == -1 {
				s.ownerOf[pg] = int32(int(pg-r[0]) * s.cfg.Procs / span)
			}
		}
	}
	for pg := range s.ownerOf {
		if s.ownerOf[pg] == -1 {
			s.ownerOf[pg] = int32(pg % s.cfg.Procs)
		}
		owner := s.procs[s.ownerOf[pg]]
		ps := &owner.pages[pg]
		ps.data = page.Buf(page.Twin(s.oraclePage(page.ID(pg))))
		ps.valid = true
		ps.copyset = 1 << uint(owner.id)
	}
}

// Stats returns the (possibly in-progress) statistics.
func (s *System) Stats() *RunStats { return &s.stats }

// ---- messaging ----

// attr attributes a message to the operation that caused it.
type attr int

const (
	attrLock attr = iota
	attrBarrier
	attrMiss
	attrRelease
)

type msgKind int

const (
	mLockReq msgKind = iota
	mLockFwd
	mLockGrant
	mBarArrive
	mBarDepart
	mPageReq
	mPageReply
	mDiffReq
	mDiffReply
	mUpdate
	mUpdateAck
	mInval
	mInvalAck
	mDiffFlush
	mBatchDiffReq
	mBatchDiffReply
)

// msg is a protocol message. Only the fields relevant to its kind are set.
type msg struct {
	kind     msgKind
	src, dst int
	class    MsgClass
	attr     attr
	payload  int // shared-data payload bytes (diffs, pages)

	lock    int
	pg      page.ID
	vt      []int32 // requester VT (lock req) / grant VT / page-reply copy VT
	recs    []*intervalRec
	diffs   []taggedDiff
	data    []byte // page image (page reply)
	copyset uint64
	flag    bool // context-dependent: e.g. "acknowledge me" on updates
	depart  *departInfo
	grant   *grantInfo
	hops    int
	episode int64 // barrier episode (EI loser diff flushes)

	// batch diff requests (LU acquires): pages and per-page coverage
	pgs []page.ID
	vts [][]int32

	// page replies: the copy's full coverage vector
	coverVT []int32

	// diff requests: per-writer cap on served interval indices, so replies
	// never inject intervals beyond the requester's acquire (which would
	// turn the fetch into a moving target). Parallel to vt (single-page
	// requests) or vts (batch requests).
	need  []int32
	needs [][]int32

	// token correlates page/diff replies with the fetch that issued the
	// request, so a reply that was overtaken by an invalidation (and whose
	// fetch was poisoned and re-issued) cannot complete the retry.
	token int64

	// Set by the send: the system the message travels in, and whether it
	// is on the wire (its next firing delivers it) rather than still
	// leaving its sender (its next firing transmits it).
	sys    *System
	onWire bool
}

// newMsg copies m into a recycled slot, which the simulation owns until
// the message is handled: the caller's m can live on its stack.
func (s *System) newMsg(m *msg) *msg {
	var slot *msg
	if n := len(s.msgFree); n > 0 {
		slot = s.msgFree[n-1]
		s.msgFree = s.msgFree[:n-1]
	} else {
		slot = new(msg)
	}
	*slot = *m
	slot.sys, slot.onWire = s, false // m may be a copy of a delivered message
	return slot
}

// kept returns a copy of the delivered message m for a handler that holds
// it past its return, when m's slot is recycled.
func (m *msg) kept() *msg {
	c := *m
	return &c
}

// Fire runs the message's next phase as a simulation event: the first
// firing puts it on the wire, the second handles it at its destination and
// recycles its slot. A handler that keeps the message past its return
// keeps a copy.
func (m *msg) Fire() {
	s := m.sys
	if !m.onWire {
		s.transmit(s.eng.Now(), m)
		return
	}
	s.handle(m)
	*m = msg{}
	s.msgFree = append(s.msgFree, m)
}

// sendFromProc transmits m from processor p's context. The sender-side
// software overhead is charged to p's clock, then the message enters the
// network at p's (globally minimal) time.
func (p *Proc) sendFromProc(m *msg) {
	sw := p.sys.cfg.messageOverheadCycles(m.payload)
	p.sys.stats.HandlerCycles += sw
	p.sp.Advance(sw)
	p.sp.Interact()
	p.sys.transmit(p.sp.Clock(), p.sys.newMsg(m))
}

// sendFromHandler transmits m from an event-handler context: it goes on
// the wire once the sender-side software overhead, charged from the
// current virtual time, has elapsed.
func (s *System) sendFromHandler(m *msg) {
	sw := s.cfg.messageOverheadCycles(m.payload)
	s.stats.HandlerCycles += sw
	s.eng.Post(s.eng.Now()+sw, s.newMsg(m))
}

// transmit puts the recycled message m on the wire at time t and posts
// its delivery at the destination after wire time plus the receiver-side
// software overhead.
func (s *System) transmit(t sim.Time, m *msg) {
	if s.trace.Enabled() {
		s.trace.Add(t, m.src, trace.MsgSend, int32(m.kind), m.dst)
	}
	s.countMsg(m)
	deliver, _ := s.net.Send(t, m.src, m.dst, m.payload)
	sw := s.cfg.messageOverheadCycles(m.payload)
	s.stats.HandlerCycles += sw
	m.onWire = true
	s.eng.Post(deliver+sw, m)
}

func (s *System) countMsg(m *msg) {
	s.stats.Msgs++
	s.stats.DataBytes += int64(m.payload)
	switch m.class {
	case ClassSync:
		s.stats.SyncMsgs++
		if m.payload > 0 {
			s.stats.SyncDataMsgs++
		}
	case ClassData:
		s.stats.DataMsgs++
	}
	switch m.attr {
	case attrLock:
		s.stats.LockMsgs++
	case attrBarrier:
		s.stats.BarrierMsgs++
	case attrMiss:
		s.stats.MissMsgs++
	}
}

// handle dispatches a delivered message at its destination.
func (s *System) handle(m *msg) {
	dst := s.procs[m.dst]
	switch m.kind {
	case mLockReq:
		s.handleLockReq(m)
	case mLockFwd:
		s.handleLockFwd(dst, m)
	case mLockGrant:
		s.handleLockGrant(dst, m)
	case mBarArrive:
		s.handleBarArrive(m)
	case mBarDepart:
		s.handleBarDepart(dst, m)
	case mPageReq:
		s.prot.handlePageReq(dst, m)
	case mPageReply:
		dst.handleFetchReply(m)
	case mDiffReq:
		s.handleDiffReq(dst, m)
	case mDiffReply:
		dst.handleFetchReply(m)
	case mUpdate:
		s.prot.handleUpdate(dst, m)
	case mUpdateAck, mInvalAck:
		dst.handleFlushAck(m)
	case mInval:
		s.handleInval(dst, m)
	case mDiffFlush:
		s.handleDiffFlush(dst, m)
	case mBatchDiffReq:
		s.handleBatchDiffReq(dst, m)
	case mBatchDiffReply:
		dst.handleBatchDiffReply(m)
	default:
		panic(fmt.Sprintf("core: unhandled message kind %d", m.kind))
	}
}
