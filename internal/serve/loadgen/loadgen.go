// Package loadgen drives a get/put key-value service with a seeded,
// deterministic YCSB-style workload: every client's request sequence —
// operation kinds, keys (uniform or zipfian), values, and open-loop
// issue schedule — is a pure function of (config, client id), so the
// same seed and mix produce byte-identical request streams no matter
// how many worker goroutines multiplex the clients. Latency is recorded
// per operation into a fixed-bucket log-scale histogram; in open-loop
// mode (a target offered rate) latency is measured from the operation's
// scheduled start, so queueing delay from a saturated server is charged
// to the operation (coordinated-omission correction) instead of
// silently stretching the schedule.
package loadgen

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lrcdsm/internal/serve/hist"
)

// Mix names a workload mix: the read fraction and the key-choice
// distribution ("uniform" or "zipfian" with parameter Theta).
type Mix struct {
	Name     string  `json:"name"`
	ReadFrac float64 `json:"read_frac"`
	Dist     string  `json:"dist"`
	Theta    float64 `json:"theta,omitempty"`
}

// Config parameterizes one load-generation run.
type Config struct {
	// Clients is the number of logical clients, each issuing its
	// requests sequentially (at most one outstanding operation).
	Clients int
	// Workers is the number of goroutines multiplexing the clients
	// (default: one per client, capped at 64). The per-client request
	// sequences do not depend on it.
	Workers int
	// Keys is the key-space size; keys are in [0, Keys).
	Keys uint64
	// Ops is the total operation count, split evenly across clients.
	Ops int64
	// Rate is the target offered rate in ops/sec across all clients;
	// 0 or negative runs closed-loop (each client issues back-to-back).
	Rate float64
	// Seed drives every random choice.
	Seed int64
	// Mix selects the read fraction and key distribution.
	Mix Mix
	// Partition confines client c to its own slice of the key space, so
	// the final value of every key is deterministic (required by Verify
	// and by cross-cluster reference checks).
	Partition bool
	// Verify tracks every acknowledged put and checks read-your-writes
	// per client during the run, plus a final sweep reading back every
	// written key. Requires Partition.
	Verify bool
}

// Req is one generated request.
type Req struct {
	Put bool
	Key uint64
	Val uint64
	// At is the scheduled issue offset from the run start (open loop
	// only; zero in closed-loop mode).
	At time.Duration
}

// ValOf encodes (client, seq) into a nonzero put value, so a read can
// be traced back to the exact write that produced it.
func ValOf(client int, seq int64) uint64 {
	return uint64(client+1)<<40 | uint64(seq+1)
}

// splitmix64 is the per-client deterministic random stream.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

func (r *splitmix64) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// ---- zipfian ----

// zipfGen draws ranks in [0, n) with P(rank) ∝ 1/(rank+1)^theta, using
// the standard YCSB/Gray rejection-free formula. The zeta constants are
// memoized per (n, theta) — computing zeta(n) is O(n).
type zipfGen struct {
	n                 uint64
	theta             float64
	alpha, zetan, eta float64
	half              float64 // 0.5^theta
}

var (
	zetaMu    sync.Mutex
	zetaCache = map[[2]uint64]float64{} // {n, bits(theta)} -> zeta(n, theta)
)

func zeta(n uint64, theta float64) float64 {
	key := [2]uint64{n, math.Float64bits(theta)}
	zetaMu.Lock()
	z, ok := zetaCache[key]
	zetaMu.Unlock()
	if ok {
		return z
	}
	for i := uint64(1); i <= n; i++ {
		z += 1 / math.Pow(float64(i), theta)
	}
	zetaMu.Lock()
	zetaCache[key] = z
	zetaMu.Unlock()
	return z
}

func newZipf(n uint64, theta float64) *zipfGen {
	z := &zipfGen{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.alpha = 1 / (1 - theta)
	z.half = math.Pow(0.5, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

func (z *zipfGen) next(r *splitmix64) uint64 {
	u := r.float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	rank := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if rank >= z.n {
		rank = z.n - 1
	}
	return rank
}

// ---- sequence generation ----

// clientRange returns client c's key range [lo, lo+span): the whole key
// space, or its private slice under Partition.
func clientRange(cfg Config, c int) (lo, span uint64) {
	if !cfg.Partition {
		return 0, cfg.Keys
	}
	n := uint64(cfg.Clients)
	lo = uint64(c) * cfg.Keys / n
	return lo, uint64(c+1)*cfg.Keys/n - lo
}

// clientOps returns how many of cfg.Ops client c issues.
func clientOps(cfg Config, c int) int64 {
	n := int64(cfg.Clients)
	base := cfg.Ops / n
	if int64(c) < cfg.Ops%n {
		base++
	}
	return base
}

// ClientReqs generates client c's full request sequence. It is a pure
// function of (cfg, c): worker count, wall-clock time and the other
// clients never influence it, which is what makes runs reproducible and
// cross-cluster reference checks meaningful.
func ClientReqs(cfg Config, c int) []Req {
	rng := &splitmix64{s: uint64(cfg.Seed)*0x9E3779B97F4A7C15 + uint64(c+1)*0xD1B54A32D192ED03}
	lo, span := clientRange(cfg, c)
	if span == 0 {
		span = 1 // degenerate partition (more clients than keys)
	}
	var zf *zipfGen
	if cfg.Mix.Dist == "zipfian" {
		theta := cfg.Mix.Theta
		if theta <= 0 || theta >= 1 {
			theta = 0.99
		}
		zf = newZipf(span, theta)
	}
	nops := clientOps(cfg, c)
	var meanGap float64 // ns between this client's requests (open loop)
	if cfg.Rate > 0 {
		meanGap = float64(cfg.Clients) / cfg.Rate * 1e9
	}
	reqs := make([]Req, 0, nops)
	var at time.Duration
	for i := int64(0); i < nops; i++ {
		var rank uint64
		if zf != nil {
			rank = zf.next(rng)
		} else {
			rank = rng.next() % span
		}
		put := rng.float64() >= cfg.Mix.ReadFrac
		rq := Req{Put: put, Key: lo + rank}
		if put {
			rq.Val = ValOf(c, i)
		}
		if meanGap > 0 {
			// Poisson arrivals: exponential inter-arrival gaps.
			u := rng.float64()
			if u < 1e-12 {
				u = 1e-12
			}
			at += time.Duration(-math.Log(u) * meanGap)
			rq.At = at
		}
		reqs = append(reqs, rq)
	}
	return reqs
}

// ---- run ----

// Driver issues one operation against the service and returns the read
// value (gets) or the echoed value (puts). Implementations: the in-proc
// serve.Server, or a TCP frontend client. A Driver is used by one
// client goroutine at a time.
type Driver interface {
	Do(put bool, key, val uint64) (uint64, error)
}

// Result is the outcome of a load run.
type Result struct {
	Mix          Mix           `json:"mix"`
	Clients      int           `json:"clients"`
	Workers      int           `json:"workers"`
	TargetRate   float64       `json:"target_rate,omitempty"`
	Ops          int64         `json:"ops"`
	Gets         int64         `json:"gets"`
	Puts         int64         `json:"puts"`
	ElapsedNs    int64         `json:"elapsed_ns"`
	OpsPerSec    float64       `json:"ops_per_sec"`
	Latency      *hist.Summary `json:"latency"`
	Violations   int64         `json:"violations"`
	VerifiedKeys int64         `json:"verified_keys,omitempty"`
}

// clientState is one client's run-time state, owned by the worker the
// client is assigned to.
type clientState struct {
	id   int
	reqs []Req
	next int
	drv  Driver
	last map[uint64]uint64 // key -> last acknowledged put value (Verify)
}

// Run executes the configured load against drivers built by mk (one per
// client) and returns the aggregate result. The first driver error
// aborts the run. With cfg.Verify, Violations counts read-your-writes
// failures observed during the run and final-sweep mismatches; zero
// violations means no acknowledged write was lost.
func Run(cfg Config, mk func(client int) (Driver, error)) (*Result, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("loadgen: Clients = %d, want >= 1", cfg.Clients)
	}
	if cfg.Keys == 0 {
		return nil, fmt.Errorf("loadgen: Keys = 0")
	}
	if cfg.Verify && !cfg.Partition {
		return nil, fmt.Errorf("loadgen: Verify requires Partition (shared keys have no deterministic owner)")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = cfg.Clients
		if workers > 64 {
			workers = 64
		}
	}
	if workers > cfg.Clients {
		workers = cfg.Clients
	}

	clients := make([]*clientState, cfg.Clients)
	for c := range clients {
		drv, err := mk(c)
		if err != nil {
			return nil, fmt.Errorf("loadgen: driver for client %d: %w", c, err)
		}
		clients[c] = &clientState{id: c, reqs: ClientReqs(cfg, c), drv: drv}
		if cfg.Verify {
			clients[c].last = make(map[uint64]uint64)
		}
	}

	var (
		h          hist.Hist
		gets, puts atomic.Int64
		violations atomic.Int64
		abort      atomic.Bool
		errMu      sync.Mutex
		firstErr   error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		abort.Store(true)
	}

	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		mine := make([]*clientState, 0, cfg.Clients/workers+1)
		for c := w; c < cfg.Clients; c += workers {
			mine = append(mine, clients[c])
		}
		wg.Add(1)
		go func(mine []*clientState) {
			defer wg.Done()
			if cfg.Rate > 0 {
				runOpen(cfg, mine, t0, &h, &gets, &puts, &violations, &abort, fail)
			} else {
				runClosed(cfg, mine, &h, &gets, &puts, &violations, &abort, fail)
			}
		}(mine)
	}
	wg.Wait()
	elapsed := time.Since(t0)

	res := &Result{
		Mix:        cfg.Mix,
		Clients:    cfg.Clients,
		Workers:    workers,
		TargetRate: cfg.Rate,
		Gets:       gets.Load(),
		Puts:       puts.Load(),
		ElapsedNs:  elapsed.Nanoseconds(),
		Violations: violations.Load(),
	}
	res.Ops = res.Gets + res.Puts
	if elapsed > 0 {
		res.OpsPerSec = float64(res.Ops) / elapsed.Seconds()
	}

	errMu.Lock()
	err := firstErr
	errMu.Unlock()
	if err == nil && cfg.Verify {
		// Final sweep: every acknowledged put must still read back, even
		// after crashes and rollbacks mid-run.
		var verified int64
		for _, cs := range clients {
			keys := make([]uint64, 0, len(cs.last))
			for k := range cs.last {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for _, k := range keys {
				got, gerr := cs.drv.Do(false, k, 0)
				if gerr != nil {
					err = fmt.Errorf("loadgen: verify sweep, client %d key %d: %w", cs.id, k, gerr)
					break
				}
				if got != cs.last[k] {
					violations.Add(1)
				}
				verified++
			}
			if err != nil {
				break
			}
		}
		res.VerifiedKeys = verified
		res.Violations = violations.Load()
	}
	res.Latency = h.Summarize()
	return res, err
}

// runClosed issues each client's requests back-to-back, interleaving
// the worker's clients round-robin so they progress together. Latency
// is the operation's own duration.
func runClosed(cfg Config, mine []*clientState, h *hist.Hist,
	gets, puts, violations *atomic.Int64, abort *atomic.Bool, fail func(error)) {
	active := len(mine)
	for active > 0 && !abort.Load() {
		active = 0
		for _, cs := range mine {
			if cs.next >= len(cs.reqs) {
				continue
			}
			if abort.Load() {
				return
			}
			rq := cs.reqs[cs.next]
			start := time.Now()
			if !doOne(cs, rq, gets, puts, violations, fail) {
				return
			}
			h.Record(time.Since(start).Nanoseconds())
			cs.next++
			if cs.next < len(cs.reqs) {
				active++
			}
		}
	}
}

// openHeap orders the worker's clients by their next request's
// scheduled time.
type openHeap []*clientState

func (o openHeap) Len() int { return len(o) }
func (o openHeap) Less(i, j int) bool {
	return o[i].reqs[o[i].next].At < o[j].reqs[o[j].next].At
}
func (o openHeap) Swap(i, j int) { o[i], o[j] = o[j], o[i] }
func (o *openHeap) Push(x any)   { *o = append(*o, x.(*clientState)) }
func (o *openHeap) Pop() any     { old := *o; n := len(old); x := old[n-1]; *o = old[:n-1]; return x }

// runOpen issues requests on their open-loop schedule: the earliest
// scheduled client goes next, the worker sleeps until its slot, and
// latency is measured from the scheduled start — an operation delayed
// because the server (or a busy predecessor on the same client) fell
// behind is charged its full queueing delay.
func runOpen(cfg Config, mine []*clientState, t0 time.Time, h *hist.Hist,
	gets, puts, violations *atomic.Int64, abort *atomic.Bool, fail func(error)) {
	hp := make(openHeap, 0, len(mine))
	for _, cs := range mine {
		if len(cs.reqs) > 0 {
			hp = append(hp, cs)
		}
	}
	heap.Init(&hp)
	for hp.Len() > 0 && !abort.Load() {
		cs := hp[0]
		rq := cs.reqs[cs.next]
		if wait := time.Until(t0.Add(rq.At)); wait > 0 {
			time.Sleep(wait)
		}
		if abort.Load() {
			return
		}
		if !doOne(cs, rq, gets, puts, violations, fail) {
			return
		}
		h.Record(time.Since(t0.Add(rq.At)).Nanoseconds())
		cs.next++
		if cs.next >= len(cs.reqs) {
			heap.Pop(&hp)
		} else {
			heap.Fix(&hp, 0)
		}
	}
}

// doOne issues one request and applies the verify bookkeeping; false
// means the run is aborting on a driver error.
func doOne(cs *clientState, rq Req, gets, puts, violations *atomic.Int64, fail func(error)) bool {
	got, err := cs.drv.Do(rq.Put, rq.Key, rq.Val)
	if err != nil {
		fail(fmt.Errorf("loadgen: client %d op %d: %w", cs.id, cs.next, err))
		return false
	}
	if rq.Put {
		puts.Add(1)
		if cs.last != nil {
			cs.last[rq.Key] = rq.Val
		}
	} else {
		gets.Add(1)
		if cs.last != nil {
			want, wrote := cs.last[rq.Key]
			if (wrote && got != want) || (!wrote && got != 0) {
				violations.Add(1)
			}
		}
	}
	return true
}
