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
	// Net supplies the cluster's links, one transport per node (e.g.
	// transport.NewTCPLoopbackNet); nil selects an in-process network.
	// Recovery rebuilds a crashed node's transport through Network.Rejoin.
	Net transport.Network
	// Observer, when non-nil, receives protocol events from every node
	// (a node.LiveObserver also the live-only ones): check.New(Nodes)
	// holds a run to the release-consistency invariants.
	Observer core.Observer
	// RPCTimeout bounds every remote wait (default 30s).
	RPCTimeout time.Duration
	// RetryBase / RetryMax shape the per-RPC retransmission backoff
	// (defaults 200ms / 2s). Lower them when running under fault
	// injection so recovery fits in a test budget.
	RetryBase time.Duration
	RetryMax  time.Duration
	// HeartbeatTimeout parameterizes failure detection (default 10s):
	// every node acks the manager leader's consensus appends, and the
	// leader aborts the cluster when a peer has been silent past the
	// timeout. Negative disables detection.
	HeartbeatTimeout time.Duration
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

	// Recovery outcome (zero without a restart budget). Total folds in
	// the counters of killed engine incarnations, so it can exceed the
	// sum of PerNode.
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

	mu    sync.Mutex // guards nodes/trs against kill during construction
	nodes []*node.Node
	trs   []transport.Transport
	final []byte
	ran   bool

	// obs is every node's Observer: Config.Observer, or a kill schedule
	// chained ahead of it (crash.go).
	obs core.Observer

	// Crash plumbing (see supervisor.go): kill records the event here and
	// RunSupervised drains it; crashPending marks a crash being handled,
	// so liveness reports during its rollback are swallowed.
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
	if cfg.Net == nil {
		cfg.Net = transport.NewInprocNet(cfg.Nodes)
	}
	if n := len(cfg.Net.Transports()); n != cfg.Nodes {
		return nil, fmt.Errorf("live: %d transports for %d nodes", n, cfg.Nodes)
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

// nodeConfig builds the per-node engine configuration.
func (c *Cluster) nodeConfig(npages int, homes []int32, rc node.RecoverConfig) node.Config {
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

		RetryBase:        c.cfg.RetryBase,
		RetryMax:         c.cfg.RetryMax,
		HeartbeatTimeout: c.cfg.HeartbeatTimeout,
		Recover:          rc,
	}
}

// Run executes worker on every node concurrently and returns the run's
// statistics. Shared memory must be allocated and initialized first; the
// initial image is placed at each page's home, and all other nodes start
// with no copies. It is RunSupervised with a restart budget of zero: no
// checkpoints, and a crash ends the run.
func (c *Cluster) Run(worker func(core.Worker)) (*Stats, error) {
	return c.RunSupervised(worker, RecoverOptions{})
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
	return c.collectStats(nds, &node.Stats{})
}

// collectStats sums the counters of nds (nil entries are skipped) and of
// killed, the incarnations a run lost to crashes.
func (c *Cluster) collectStats(nds []*node.Node, killed *node.Stats) *Stats {
	st := &Stats{Nodes: c.cfg.Nodes, Protocol: c.cfg.Protocol.String()}
	for _, nd := range nds {
		if nd == nil {
			continue
		}
		s := nd.Stats()
		st.PerNode = append(st.PerNode, s)
		st.Total.Add(&s)
	}
	st.Total.Add(killed)
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

// pickErr selects the error a failed round ends with, nil for a clean
// one. errs holds each worker's error and first the index of the worker
// that failed first (-1: none); the nodes' own errors join them. The
// failure detector's verdict (*node.PeerDownError) names the suspect
// node and its pending operation, so it wins over the secondary
// *node.RemoteAbortError panics it triggers on every other node. Absent
// one, the first-failing worker's error wins: it is the root cause, and
// the others unwound in the teardown it started.
func pickErr(nodes []*node.Node, errs []error, first int) error {
	for _, nd := range nodes {
		if err := nd.Err(); err != nil {
			errs = append(errs, err)
		}
	}
	var other error
	for _, err := range errs {
		var pd *node.PeerDownError
		if errors.As(err, &pd) {
			return err
		}
		if other == nil {
			other = err
		}
	}
	if first >= 0 && errs[first] != nil {
		return errs[first]
	}
	return other
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

// PageSize returns the cluster's configured page size in bytes.
func (c *Cluster) PageSize() int { return c.cfg.PageSize }
