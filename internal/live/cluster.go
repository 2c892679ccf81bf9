// Package live runs DSM applications on a real concurrent runtime: one
// goroutine-backed node per processor (internal/live/node) connected by
// a pluggable transport (internal/live/transport). A Cluster implements
// the same engine-neutral core.Mem / core.Worker / core.Peeker
// interfaces as the deterministic simulator, so the four paper workloads
// run unchanged on either engine and their results can be cross-checked.
package live

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/node"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/page"
)

// Config parameterizes a live cluster.
type Config struct {
	// Nodes is the cluster size (one worker goroutine per node).
	Nodes int
	// PageSize is the shared page size (power of two; default 4096).
	PageSize int
	// MaxSharedBytes bounds the shared address space (default 64 MiB).
	MaxSharedBytes int
	// Protocol selects the acquire-side behaviour: core.LH (default, the
	// paper's hybrid — cached pages are refreshed with diffs pulled from
	// their home) or core.LI (noticed pages are invalidated).
	Protocol core.Protocol
	// Transports, when non-nil, supplies one transport per node (e.g.
	// transport.NewTCPLoopback). Nil selects the in-process transport.
	Transports []transport.Transport
	// Net, when non-nil, supplies the whole network instead of
	// Transports. RunSupervised requires it: recovery rebuilds a crashed
	// node's transport through Network.Rejoin.
	Net transport.Network
	// Observer, when non-nil, receives protocol events from every node.
	Observer node.Observer
	// RPCTimeout bounds every remote wait (default 30s).
	RPCTimeout time.Duration
	// RetryBase / RetryMax shape the per-RPC retransmission backoff
	// (defaults 200ms / 2s). Lower them when running under fault
	// injection so recovery fits in a test budget.
	RetryBase time.Duration
	RetryMax  time.Duration
	// HeartbeatInterval / HeartbeatTimeout parameterize failure
	// detection (defaults 1s / 10s): every non-manager node beacons the
	// manager at the interval, and the manager aborts the cluster when a
	// peer has been silent past the timeout. A negative timeout disables
	// detection.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
}

// Stats is the outcome of a live run: per-node protocol counters, their
// sum, and the real elapsed time.
type Stats struct {
	Nodes     int          `json:"nodes"`
	Protocol  string       `json:"protocol"`
	ElapsedNs int64        `json:"elapsed_ns"`
	PerNode   []node.Stats `json:"per_node"`
	Total     node.Stats   `json:"total"`

	// Traffic balance: the largest per-node share of the cluster's sent
	// messages and which node holds it. A centralized coordinator shows
	// up here as one node owning most of the traffic; the distributed
	// sync plane should keep this near 1/Nodes.
	MaxMsgFrac float64 `json:"max_msg_frac"`
	MaxMsgNode int     `json:"max_msg_node"`

	// Recovery outcome (RunSupervised only). Total folds in the counters
	// of killed engine incarnations, so it can exceed the sum of PerNode.
	Restarts   int64 `json:"restarts,omitempty"`
	RecoveryNs int64 `json:"recovery_ns,omitempty"`
}

// Cluster is a live DSM machine. Like core.System it is used once:
// allocate and initialize shared memory (core.Mem), call Run, then read
// results back (core.Peeker).
type Cluster struct {
	cfg       Config
	pageShift uint

	brk    core.Addr
	allocs [][2]page.ID
	nlocks int
	nbars  int
	init   map[page.ID][]byte

	mu    sync.Mutex // guards nodes/trs against Kill during construction
	nodes []*node.Node
	trs   []transport.Transport
	final []byte
	ran   bool

	// obs is every node's Observer: Config.Observer, or a kill schedule
	// chained ahead of it (crash.go).
	obs node.Observer

	// Crash plumbing (see supervisor.go): Kill records the event here and
	// RunSupervised drains it; crashPending marks a rollback in flight so
	// worker failures during it are forgiven.
	crashCh      chan crashEvent
	crashPending atomic.Bool
}

type crashEvent struct {
	victim       int
	restartAfter time.Duration
}

var (
	_ core.Mem    = (*Cluster)(nil)
	_ core.Peeker = (*Cluster)(nil)
)

// New builds a live cluster from the configuration.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("live: Nodes = %d, want >= 1", cfg.Nodes)
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = core.DefaultPageSize
	}
	if cfg.PageSize < 64 || cfg.PageSize&(cfg.PageSize-1) != 0 {
		return nil, fmt.Errorf("live: PageSize = %d, want power of two >= 64", cfg.PageSize)
	}
	if cfg.MaxSharedBytes == 0 {
		cfg.MaxSharedBytes = 64 << 20
	}
	if cfg.Protocol != core.LI && cfg.Protocol != core.LH {
		return nil, fmt.Errorf("live: protocol %v not supported (want LI or LH)", cfg.Protocol)
	}
	if cfg.Transports != nil && len(cfg.Transports) != cfg.Nodes {
		return nil, fmt.Errorf("live: %d transports for %d nodes", len(cfg.Transports), cfg.Nodes)
	}
	if cfg.Net != nil && cfg.Transports != nil {
		return nil, fmt.Errorf("live: set Net or Transports, not both")
	}
	c := &Cluster{cfg: cfg, obs: cfg.Observer, init: make(map[page.ID][]byte), crashCh: make(chan crashEvent, 4*cfg.Nodes)}
	for ps := cfg.PageSize; ps > 1; ps >>= 1 {
		c.pageShift++
	}
	return c, nil
}

// Procs implements core.Mem.
func (c *Cluster) Procs() int { return c.cfg.Nodes }

func (c *Cluster) pageOf(a core.Addr) page.ID { return page.ID(a >> c.pageShift) }

// Alloc implements core.Mem: it reserves n bytes (8-byte aligned).
func (c *Cluster) Alloc(n int) core.Addr {
	a := (c.brk + 7) &^ 7
	c.brk = a + core.Addr(n)
	if int(c.brk) > c.cfg.MaxSharedBytes {
		panic(fmt.Sprintf("live: shared memory exhausted (%d > %d)", c.brk, c.cfg.MaxSharedBytes))
	}
	c.allocs = append(c.allocs, [2]page.ID{c.pageOf(a), c.pageOf(c.brk - 1)})
	return a
}

// AllocPage implements core.Mem: it reserves n bytes on a fresh page.
func (c *Cluster) AllocPage(n int) core.Addr {
	ps := core.Addr(c.cfg.PageSize)
	a := (c.brk + ps - 1) &^ (ps - 1)
	c.brk = a + core.Addr(n)
	if int(c.brk) > c.cfg.MaxSharedBytes {
		panic(fmt.Sprintf("live: shared memory exhausted (%d > %d)", c.brk, c.cfg.MaxSharedBytes))
	}
	c.allocs = append(c.allocs, [2]page.ID{c.pageOf(a), c.pageOf(c.brk - 1)})
	return a
}

// NewLock implements core.Mem.
func (c *Cluster) NewLock() int {
	id := c.nlocks
	c.nlocks++
	return id
}

// NewLocks implements core.Mem.
func (c *Cluster) NewLocks(n int) int {
	id := c.nlocks
	c.nlocks += n
	return id
}

// NewBarrier implements core.Mem.
func (c *Cluster) NewBarrier() int {
	id := c.nbars
	c.nbars++
	return id
}

func (c *Cluster) initPage(pg page.ID) []byte {
	b := c.init[pg]
	if b == nil {
		b = make([]byte, c.cfg.PageSize)
		c.init[pg] = b
	}
	return b
}

// InitU64 implements core.Mem: it stores a word into the initial image.
func (c *Cluster) InitU64(a core.Addr, v uint64) {
	if c.ran {
		panic("live: Init after Run")
	}
	page.Buf(c.initPage(c.pageOf(a))).PutU64(int(a)&(c.cfg.PageSize-1), v)
}

// InitF64 implements core.Mem.
func (c *Cluster) InitF64(a core.Addr, v float64) { c.InitU64(a, math.Float64bits(v)) }

// InitI64 implements core.Mem.
func (c *Cluster) InitI64(a core.Addr, v int64) { c.InitU64(a, uint64(v)) }

// homeAssignment mirrors the simulator's static page-ownership policy:
// within each allocation, pages are block-assigned across the nodes
// (first allocation wins for pages shared by small allocations), so a
// band-partitioned array is homed at the nodes that use it.
func (c *Cluster) homeAssignment(npages int) []int32 {
	homes := make([]int32, npages)
	for i := range homes {
		homes[i] = -1
	}
	for _, r := range c.allocs {
		span := int(r[1]-r[0]) + 1
		for pg := r[0]; pg <= r[1]; pg++ {
			if homes[pg] == -1 {
				homes[pg] = int32(int(pg-r[0]) * c.cfg.Nodes / span)
			}
		}
	}
	for pg := range homes {
		if homes[pg] == -1 {
			homes[pg] = int32(pg % c.cfg.Nodes)
		}
	}
	return homes
}

// nodeConfig builds the per-node engine configuration shared by Run and
// RunSupervised; rc is nil when recovery is disabled.
func (c *Cluster) nodeConfig(npages int, homes []int32, rc *node.RecoverConfig) node.Config {
	return node.Config{
		PageSize:   c.cfg.PageSize,
		NPages:     npages,
		Homes:      homes,
		Init:       c.init,
		NLocks:     c.nlocks,
		NBars:      c.nbars,
		Protocol:   c.cfg.Protocol,
		Observer:   c.obs,
		RPCTimeout: c.cfg.RPCTimeout,

		RetryBase:         c.cfg.RetryBase,
		RetryMax:          c.cfg.RetryMax,
		HeartbeatInterval: c.cfg.HeartbeatInterval,
		HeartbeatTimeout:  c.cfg.HeartbeatTimeout,
		Recover:           rc,
	}
}

// Run executes worker on every node concurrently and returns the run's
// statistics. Shared memory must be allocated and initialized first; the
// initial image is placed at each page's home, and all other nodes start
// with no copies.
func (c *Cluster) Run(worker func(core.Worker)) (*Stats, error) {
	if c.ran {
		return nil, fmt.Errorf("live: Cluster already ran")
	}
	c.ran = true
	if c.brk == 0 {
		return nil, fmt.Errorf("live: no shared memory allocated")
	}
	npages := int(c.pageOf(c.brk-1)) + 1
	homes := c.homeAssignment(npages)

	trs := c.cfg.Transports
	if c.cfg.Net != nil {
		trs = c.cfg.Net.Transports()
	}
	if trs == nil {
		trs = transport.NewInprocNetwork(c.cfg.Nodes)
	}
	nodes := make([]*node.Node, c.cfg.Nodes)
	for i := range nodes {
		nodes[i] = node.New(trs[i], c.nodeConfig(npages, homes, nil))
	}
	c.mu.Lock()
	c.nodes = nodes
	c.trs = trs
	c.mu.Unlock()
	for _, nd := range nodes {
		nd.Start()
	}

	// abort tears the cluster down once, so one node's failure unblocks
	// every other node's waits instead of letting them ride out their
	// RPC timeouts.
	var abortOnce sync.Once
	abort := func() {
		abortOnce.Do(func() {
			for _, nd := range c.nodes {
				nd.Close()
			}
			for _, tr := range trs {
				tr.Close()
			}
		})
	}

	t0 := time.Now()
	errs := make([]error, c.cfg.Nodes)
	var wg sync.WaitGroup
	for i, nd := range c.nodes {
		wg.Add(1)
		go func(i int, nd *node.Node) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if re, ok := r.(interface{ Unwrap() error }); ok {
						errs[i] = re.Unwrap()
					} else {
						errs[i] = fmt.Errorf("live: node %d worker panic: %v\n%s", i, r, debug.Stack())
					}
					abort()
				}
			}()
			worker(nd)
			// Flush the last interval so the homes hold final memory.
			nd.FinalFlush()
		}(i, nd)
	}
	wg.Wait()
	elapsed := time.Since(t0)

	for _, nd := range c.nodes {
		if err := nd.Err(); err != nil {
			errs = append(errs, err)
		}
	}
	firstErr := pickErr(errs)
	if firstErr == nil {
		// Gather the final image from the homes before teardown.
		c.gatherFinal(c.nodes, homes)
	}
	abort()
	for _, nd := range c.nodes {
		nd.Wait()
	}
	if firstErr != nil {
		return nil, firstErr
	}

	st := &Stats{
		Nodes:     c.cfg.Nodes,
		Protocol:  c.cfg.Protocol.String(),
		ElapsedNs: elapsed.Nanoseconds(),
	}
	for _, nd := range c.nodes {
		s := nd.Stats()
		st.PerNode = append(st.PerNode, s)
		addStats(&st.Total, &s)
	}
	st.Total.Node = -1
	st.computeBalance()
	return st, nil
}

// gatherFinal assembles the final memory image from the pages' homes,
// each page copied once, straight into place.
func (c *Cluster) gatherFinal(nodes []*node.Node, homes []int32) {
	c.final = make([]byte, c.brk)
	for pg, home := range homes {
		nodes[home].CopyHomePage(page.ID(pg), c.final[pg<<c.pageShift:])
	}
}

// StatsSnapshot returns the protocol counters of the cluster's current
// engines, safe to call while a run is in flight (dsmd uses it to dump
// state when a wall-clock deadline expires). Elapsed time and the
// recovery totals are only known once the run returns, so they are zero
// here.
func (c *Cluster) StatsSnapshot() *Stats {
	c.mu.Lock()
	nds := append([]*node.Node(nil), c.nodes...)
	c.mu.Unlock()
	st := &Stats{Nodes: c.cfg.Nodes, Protocol: c.cfg.Protocol.String()}
	for _, nd := range nds {
		if nd == nil {
			continue
		}
		s := nd.Stats()
		st.PerNode = append(st.PerNode, s)
		addStats(&st.Total, &s)
	}
	st.Total.Node = -1
	st.computeBalance()
	return st
}

// computeBalance fills MaxMsgFrac/MaxMsgNode from the per-node message
// counters.
func (st *Stats) computeBalance() {
	st.MaxMsgFrac, st.MaxMsgNode = 0, -1
	if st.Total.MsgsSent == 0 {
		return
	}
	for i := range st.PerNode {
		f := float64(st.PerNode[i].MsgsSent) / float64(st.Total.MsgsSent)
		if f > st.MaxMsgFrac {
			st.MaxMsgFrac, st.MaxMsgNode = f, st.PerNode[i].Node
		}
	}
}

// pickErr selects the error to surface from a failed run. The manager's
// failure-detection verdict (*node.PeerDownError) names the suspect node
// and its pending operation, so it wins over the secondary
// *node.RemoteAbortError panics it triggers on every other node; absent
// one, the first error wins.
func pickErr(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var pd *node.PeerDownError
		if errors.As(err, &pd) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// addStats accumulates src's counters into dst.
func addStats(dst, src *node.Stats) {
	dst.MsgsSent += src.MsgsSent
	dst.MsgsRecv += src.MsgsRecv
	dst.BytesSent += src.BytesSent
	dst.BytesRecv += src.BytesRecv
	dst.DataBytes += src.DataBytes
	dst.SharedReads += src.SharedReads
	dst.SharedWrites += src.SharedWrites
	dst.PageFaults += src.PageFaults
	dst.PageFetches += src.PageFetches
	dst.DiffPulls += src.DiffPulls
	dst.GrantDiffs += src.GrantDiffs
	dst.TwinsCreated += src.TwinsCreated
	dst.DiffsCreated += src.DiffsCreated
	dst.DiffsApplied += src.DiffsApplied
	dst.DiffBytes += src.DiffBytes
	dst.Intervals += src.Intervals
	dst.Invalidations += src.Invalidations
	dst.LockAcquires += src.LockAcquires
	dst.BarrierEpisodes += src.BarrierEpisodes
	dst.LockLocalAcquires += src.LockLocalAcquires
	dst.LockForwards += src.LockForwards
	dst.LockHandoffs += src.LockHandoffs
	dst.LogSegFetches += src.LogSegFetches
	dst.BackoffParks += src.BackoffParks
	dst.BackoffTimeouts += src.BackoffTimeouts
	dst.RPCRetries += src.RPCRetries
	dst.DupRequests += src.DupRequests
	dst.DupReplies += src.DupReplies
	dst.HeartbeatsSent += src.HeartbeatsSent
	dst.HeartbeatsRecv += src.HeartbeatsRecv
	dst.FlushRetransmits += src.FlushRetransmits
	dst.AcksCarried += src.AcksCarried
	dst.CheckpointsTaken += src.CheckpointsTaken
	dst.CheckpointBytes += src.CheckpointBytes
	dst.StaleFrames += src.StaleFrames
	dst.LockWaitNs += src.LockWaitNs
	dst.BarrierWaitNs += src.BarrierWaitNs
	dst.FaultWaitNs += src.FaultWaitNs
	dst.FlushWaitNs += src.FlushWaitNs
	dst.HomeWaitNs += src.HomeWaitNs
	dst.ParkedReqs += src.ParkedReqs
	dst.ServeGets += src.ServeGets
	dst.ServePuts += src.ServePuts
	dst.ServeInline += src.ServeInline
	dst.ConsensusTerms += src.ConsensusTerms
	dst.ConsensusElections += src.ConsensusElections
	dst.ConsensusCommits += src.ConsensusCommits
	dst.LeaderRedirects += src.LeaderRedirects
	dst.ConsensusCompactions += src.ConsensusCompactions
	dst.ConsensusSnapInstalls += src.ConsensusSnapInstalls
	dst.ConsensusConfChanges += src.ConsensusConfChanges
	dst.ConsensusSlotQuarantines += src.ConsensusSlotQuarantines
	dst.ConsensusLaneDrops += src.ConsensusLaneDrops
	dst.MgrCacheEvictions += src.MgrCacheEvictions
}

// PeekU64 implements core.Peeker: before Run it reads the initial image,
// after a successful Run the final image gathered from the homes.
func (c *Cluster) PeekU64(a core.Addr) uint64 {
	if c.final != nil {
		return page.Buf(c.final).U64(int(a))
	}
	b := c.init[c.pageOf(a)]
	if b == nil {
		return 0
	}
	return page.Buf(b).U64(int(a) & (c.cfg.PageSize - 1))
}

// PeekF64 implements core.Peeker.
func (c *Cluster) PeekF64(a core.Addr) float64 { return math.Float64frombits(c.PeekU64(a)) }

// PeekI64 implements core.Peeker.
func (c *Cluster) PeekI64(a core.Addr) int64 { return int64(c.PeekU64(a)) }

// Brk returns the top of the shared allocation.
func (c *Cluster) Brk() core.Addr { return c.brk }

// PageSize returns the cluster's configured page size in bytes.
func (c *Cluster) PageSize() int { return c.cfg.PageSize }
