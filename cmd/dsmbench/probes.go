package main

import (
	"fmt"
	"os"
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/harness"
	"lrcdsm/internal/live"
	"lrcdsm/internal/live/consensus"
	ckpt "lrcdsm/internal/live/recover"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/live/wire"
	"lrcdsm/internal/page"
	"lrcdsm/internal/serve"
	"lrcdsm/internal/serve/hist"
	"lrcdsm/internal/serve/loadgen"
	"lrcdsm/internal/sim"
	"lrcdsm/internal/vc"
)

// perLayer declares the per-layer metrics: the probe ladder (one probe
// per layer's public API), the run counters of the workload's own
// iterations, and the traced run. README.md says which end-to-end metric
// each should move, and on which workload.
var perLayer = []metricDef{
	{Name: "page.twin_ns", Unit: "ns", Better: "lower"},
	{Name: "page.makediff_sparse_ns", Unit: "ns", Better: "lower"},
	{Name: "page.makediff_dense_ns", Unit: "ns", Better: "lower"},
	{Name: "page.apply_ns", Unit: "ns", Better: "lower"},
	{Name: "vc.join_ns", Unit: "ns", Better: "lower"},
	{Name: "vc.covers_ns", Unit: "ns", Better: "lower"},

	{Name: "sim.dispatch_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.cell_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sim.host_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "core.cycles_cholesky_lh_16", Unit: "cycles", Better: "lower"},
	{Name: "core.stats_digest", Unit: "hash48", Better: "lower"},

	{Name: "wire.encode_small_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_small_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_page_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_page_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_small_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.encode_page_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.decode_page_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.small_frame_bytes", Unit: "B", Better: "lower"},

	{Name: "transport.inproc_rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_rtt_4k_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_stream_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "transport.tcp_send_allocs", Unit: "count", Better: "lower"},
	{Name: "transport.tcp_fixed_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_ns_per_byte", Unit: "ns", Better: "lower"},

	{Name: "node.read_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "node.write_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "node.lock_local_ns", Unit: "ns", Better: "lower"},
	{Name: "node.lock_handoff_inproc_us", Unit: "us", Better: "lower"},
	{Name: "node.lock_handoff_tcp_us", Unit: "us", Better: "lower"},
	{Name: "node.barrier_inproc_us", Unit: "us", Better: "lower"},
	{Name: "node.fault_inproc_us", Unit: "us", Better: "lower"},
	{Name: "node.fault_tcp_us", Unit: "us", Better: "lower"},
	{Name: "node.update_lh_us", Unit: "us", Better: "lower"},
	{Name: "node.update_li_us", Unit: "us", Better: "lower"},

	{Name: "node.msgs_per_iter", Unit: "count", Better: "lower"},
	{Name: "node.bytes_per_iter", Unit: "B", Better: "lower"},
	{Name: "node.page_fetches_per_iter", Unit: "count", Better: "lower"},
	{Name: "node.diff_pulls_per_iter", Unit: "count", Better: "lower"},
	{Name: "node.lock_wait_frac", Unit: "frac", Better: "lower"},
	{Name: "node.barrier_wait_frac", Unit: "frac", Better: "lower"},
	{Name: "node.fault_wait_frac", Unit: "frac", Better: "lower"},
	{Name: "node.max_msg_frac", Unit: "frac", Better: "lower"},

	{Name: "consensus.commit_us", Unit: "us", Better: "lower"},
	{Name: "consensus.commit_allocs", Unit: "count", Better: "lower"},

	{Name: "recover.encode_node_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "recover.decode_node_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "recover.memstore_put_us", Unit: "us", Better: "lower"},
	{Name: "recover.dirstore_put_ms", Unit: "ms", Better: "lower"},
	{Name: "recover.ckpt_bytes_per_iter", Unit: "B", Better: "lower"},
	{Name: "recover.ckpts_per_iter", Unit: "count", Better: "lower"},

	{Name: "serve.do_get_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.do_put_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.lock_acquires_per_kop", Unit: "count", Better: "lower"},

	{Name: "loadgen.gen_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "hist.record_ns", Unit: "ns", Better: "lower"},

	{Name: "host.calib_ms", Unit: "ms", Better: "lower"},

	{Name: "app.lock_call_us_p50", Unit: "us", Better: "lower"},
	{Name: "app.lock_call_us_p99", Unit: "us", Better: "lower"},
	{Name: "app.barrier_call_us_p50", Unit: "us", Better: "lower"},
	{Name: "app.sync_frac", Unit: "frac", Better: "lower"},
	{Name: "app.self_frac", Unit: "frac", Better: "higher"},
	{Name: "trace_overhead_frac", Unit: "frac", Better: "lower"},
}

const probeRepeats = 5

// prober times probes: each is run probeRepeats times for about per and
// its median is stored under the metric's name.
type prober struct {
	res     *result
	per     time.Duration
	verbose bool // also print quartiles
}

// report stores the median of samples (already in the metric's unit).
func (p *prober) report(name string, samples []float64) {
	p.res.set(perLayer, name, median(samples))
	if p.verbose {
		q1, q2, q3 := quartiles(samples)
		fmt.Printf("  %-34s %14.3f %-6s [q1 %.3f, q3 %.3f]\n", name, q2, p.res.Metrics[name].Unit, q1, q3)
	}
}

// timeOps calibrates n so that fn(n) — which performs n operations —
// takes about p.per, and returns probeRepeats samples of ns per operation.
func (p *prober) timeOps(fn func(n int)) []float64 {
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		if d >= p.per/8 || n >= 1<<28 {
			if d > 0 {
				n = int(float64(n)*float64(p.per)/float64(d)) + 1
			}
			break
		}
		n *= 2
	}
	samples := make([]float64, probeRepeats)
	for i := range samples {
		t0 := time.Now()
		fn(n)
		samples[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return samples
}

// ns stores fn's cost per operation in ns divided by div (1: ns, 1e3: us,
// 1e6: ms).
func (p *prober) ns(name string, div float64, fn func(n int)) []float64 {
	samples := p.timeOps(fn)
	for i := range samples {
		samples[i] /= div
	}
	p.report(name, samples)
	return samples
}

// count scales a repetition count sized for a 20 ms repeat to p.per.
func (p *prober) count(base int) int {
	return int(float64(base)*float64(p.per)/float64(20*time.Millisecond)) + 1
}

func (p *prober) allocs(name string, fn func()) {
	p.report(name, []float64{testing.AllocsPerRun(100, fn)})
}

// sink keeps probed results alive so the compiler cannot drop the calls.
var sink any

// runLadder runs every probe and stores the results in res. pass, when
// non-nil, is a full simulator pass the caller already ran (sim-sweep).
func runLadder(res *result, per time.Duration, verbose bool, pass *simPass) error {
	p := &prober{res: res, per: per, verbose: verbose}
	p.pageAndVC()
	if err := p.simulator(pass); err != nil {
		return err
	}
	p.wire()
	if err := p.transports(); err != nil {
		return err
	}
	if err := p.node(); err != nil {
		return err
	}
	if err := p.consensus(); err != nil {
		return err
	}
	if err := p.recover(); err != nil {
		return err
	}
	if err := p.serve(); err != nil {
		return err
	}
	p.generator()
	return nil
}

const pageSize = core.DefaultPageSize

func (p *prober) pageAndVC() {
	cur := make([]byte, pageSize)
	for i := range cur {
		cur[i] = byte(i)
	}
	p.ns("page.twin_ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			page.FreeTwin(page.NewTwin(cur))
		}
	})
	twin := page.Twin(cur)
	sparse := page.Twin(cur)
	for w := 0; w < pageSize/page.WordSize; w += 64 { // 8 single-word runs
		sparse[w*page.WordSize] ^= 0xff
	}
	dense := page.Twin(cur)
	for i := range dense {
		dense[i] ^= 0xff
	}
	p.ns("page.makediff_sparse_ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			sink = page.MakeDiff(0, twin, sparse)
		}
	})
	p.ns("page.makediff_dense_ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			sink = page.MakeDiff(0, twin, dense)
		}
	})
	d := page.MakeDiff(0, twin, dense)
	dst := page.Twin(cur)
	p.ns("page.apply_ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			d.Apply(dst)
		}
	})

	a, b := vc.New(16), vc.New(16)
	for i := 0; i < 16; i++ {
		a.Set(i, int32(i))
		b.Set(i, int32(16-i))
	}
	p.ns("vc.join_ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			a.Join(b)
		}
	})
	covers := false
	p.ns("vc.covers_ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			covers = a.Covers(b)
		}
	})
	sink = covers
}

func (p *prober) simulator(pass *simPass) error {
	var simErr error
	p.ns("sim.dispatch_ns", 1, func(n int) {
		e := sim.New(1)
		err := e.Run(func(pr *sim.Proc) {
			for i := 0; i < n; i++ {
				e.Schedule(pr.Clock(), func() {})
				pr.Advance(1)
				pr.Interact()
			}
		})
		if err != nil {
			simErr = err
		}
	})
	if simErr != nil {
		return simErr
	}
	if pass == nil {
		results, cellMs, _, err := runCells(simGrid(false), nil, 0)
		if err != nil {
			return err
		}
		pass = totals(results, cellMs)
	}
	p.report("sim.cell_ms_p50", pass.cellMs)
	// 48 bits of the digest survive a float64 exactly.
	p.report("core.stats_digest", []float64{float64(pass.digest & (1<<48 - 1))})

	// The paper's headline cell: fine-grained cholesky on 16 processors.
	spec := harness.DefaultSpec("cholesky", harness.ScaleBench)
	t0 := time.Now()
	cell, err := harness.Run(spec)
	if err != nil {
		return err
	}
	host := time.Since(t0)
	p.report("sim.host_ns_per_msg", []float64{float64(host.Nanoseconds()) / float64(cell.Stats.Msgs)})
	p.report("core.cycles_cholesky_lh_16", []float64{float64(cell.Stats.Cycles)})
	return nil
}

func (p *prober) wire() {
	small := &wire.Msg{Kind: wire.KLockReq, From: 1, Token: 42, Lock: 3, VT: []int32{5, 7}}
	pg := &wire.Msg{Kind: wire.KPageReply, From: 1, Token: 42, Page: 9, VT: []int32{5, 7}, Data: make([]byte, pageSize)}
	smallB, pageB := wire.Encode(small), wire.Encode(pg)
	encode := func(m *wire.Msg) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				sink = wire.Encode(m)
			}
		}
	}
	decode := func(b []byte) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				m, err := wire.Decode(b)
				if err != nil {
					panic(err)
				}
				sink = m
			}
		}
	}
	p.ns("wire.encode_small_ns", 1, encode(small))
	p.ns("wire.decode_small_ns", 1, decode(smallB))
	p.ns("wire.encode_page_ns", 1, encode(pg))
	p.ns("wire.decode_page_ns", 1, decode(pageB))
	p.allocs("wire.encode_small_allocs", func() { encode(small)(1) })
	p.allocs("wire.encode_page_allocs", func() { encode(pg)(1) })
	p.allocs("wire.decode_page_allocs", func() { decode(pageB)(1) })
	p.report("wire.small_frame_bytes", []float64{float64(len(smallB))})
}

// echo returns every frame tr receives to its sender until tr closes.
func echo(tr transport.Transport, done chan<- struct{}) {
	defer close(done)
	for {
		f, err := tr.Recv()
		if err != nil {
			return
		}
		if tr.Send(f.From, f.Payload) != nil {
			return
		}
	}
}

// pingPong returns a function doing n round trips of size bytes from
// trs[0] to the echoing trs[1].
func pingPong(trs []transport.Transport, size int, fail *error) func(n int) {
	buf := make([]byte, size)
	return func(n int) {
		for i := 0; i < n && *fail == nil; i++ {
			if err := trs[0].Send(1, buf); err != nil {
				*fail = err
				return
			}
			if _, err := trs[0].Recv(); err != nil {
				*fail = err
			}
		}
	}
}

func (p *prober) transports() error {
	var fail error

	inproc := transport.NewInprocNet(2)
	inprocDone := make(chan struct{})
	go echo(inproc.Transports()[1], inprocDone)
	p.ns("transport.inproc_rtt_us", 1e3, pingPong(inproc.Transports(), 64, &fail))
	inproc.Close()
	<-inprocDone

	tcp, err := transport.NewTCPLoopbackNet(2, transport.TCPOptions{})
	if err != nil {
		return err
	}
	trs := tcp.Transports()
	tcpDone := make(chan struct{})
	go echo(trs[1], tcpDone)
	rtt := p.ns("transport.tcp_rtt_us", 1e3, pingPong(trs, 64, &fail))
	rtt4k := p.ns("transport.tcp_rtt_4k_us", 1e3, pingPong(trs, pageSize, &fail))
	// AllocsPerRun counts every goroutine's allocations, so a round trip
	// is two sends and two receives: halve it for one message.
	one := pingPong(trs, 64, &fail)
	p.report("transport.tcp_send_allocs", []float64{testing.AllocsPerRun(100, func() { one(1) }) / 2})
	tcp.Close()
	<-tcpDone

	// The live Table 2: a message's fixed cost is half a small round
	// trip, and the per-byte cost is what a 4 KiB payload adds to it.
	fixed, fixed4k := median(rtt)/2, median(rtt4k)/2
	p.report("transport.tcp_fixed_us_per_msg", []float64{fixed})
	p.report("transport.tcp_ns_per_byte", []float64{(fixed4k - fixed) * 1e3 / (pageSize - 64)})

	// One-way streaming of page-sized frames; the last frame of a batch is
	// marked so the receiver can acknowledge the batch.
	stream, err := transport.NewTCPLoopbackNet(2, transport.TCPOptions{})
	if err != nil {
		return err
	}
	trs = stream.Transports()
	acks := make(chan struct{})
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		for {
			f, err := trs[1].Recv()
			if err != nil {
				return
			}
			if f.Payload[0] == 1 {
				acks <- struct{}{}
			}
		}
	}()
	frame, last := make([]byte, pageSize), make([]byte, pageSize)
	last[0] = 1
	samples := p.timeOps(func(n int) {
		for i := 0; i < n && fail == nil; i++ {
			b := frame
			if i == n-1 {
				b = last
			}
			if err := trs[0].Send(1, b); err != nil {
				fail = err
				return
			}
		}
		<-acks
	})
	for i, nsPerFrame := range samples {
		samples[i] = pageSize / nsPerFrame * 1e3 // bytes/ns -> MB/s
	}
	p.report("transport.tcp_stream_mb_per_s", samples)
	stream.Close()
	<-streamDone
	return fail
}

// onCluster runs bodies[i] as node i's worker on a fresh 2-node cluster.
func onCluster(prot core.Protocol, tcp bool, configure func(m core.Mem), bodies ...func(w core.Worker)) error {
	cfg := live.Config{Nodes: len(bodies), Protocol: prot}
	if tcp {
		nw, err := transport.NewTCPLoopbackNet(cfg.Nodes, transport.TCPOptions{})
		if err != nil {
			return err
		}
		defer nw.Close()
		cfg.Net = nw
	}
	cl, err := live.New(cfg)
	if err != nil {
		return err
	}
	configure(cl)
	_, err = cl.Run(func(w core.Worker) { bodies[w.ID()](w) })
	return err
}

func idle(core.Worker) {}

// turns alternates two nodes out of band (both live in this process), so
// a probe can force every acquire to be a hand-off without spinning on
// shared memory. Node 0 drives: round runs a's step, then b's.
type turns struct{ toB, toA chan struct{} }

func newTurns() turns { return turns{make(chan struct{}), make(chan struct{})} }

// serveB runs step on node 1 once per round until node 0 is done.
func (t turns) serveB(step func()) {
	for range t.toB {
		step()
		t.toA <- struct{}{}
	}
}

func (t turns) round() {
	t.toB <- struct{}{}
	<-t.toA
}

func (p *prober) node() error {
	// Hits and the local re-acquire need no second party: node 1 idles.
	var x core.Addr
	var lk, bar int
	word := func(m core.Mem) { x, lk, bar = m.AllocPage(8), m.NewLock(), m.NewBarrier() }
	err := onCluster(core.LH, false, word, func(w core.Worker) {
		w.WriteU64(x, 1)
		var v uint64
		p.ns("node.read_hit_ns", 1, func(n int) {
			for i := 0; i < n; i++ {
				v += w.ReadU64(x)
			}
		})
		sink = v
		p.ns("node.write_hit_ns", 1, func(n int) {
			for i := 0; i < n; i++ {
				w.WriteU64(x, uint64(i))
			}
		})
		p.ns("node.lock_local_ns", 1, func(n int) {
			for i := 0; i < n; i++ {
				w.Lock(lk)
				w.Unlock(lk)
			}
		})
	}, idle)
	if err != nil {
		return err
	}

	// Lock ping-pong: each round is two hand-offs, no shared data.
	handoff := func(name string, tcp bool) error {
		t := newTurns()
		grab := func(w core.Worker) func() {
			return func() { w.Lock(lk); w.Unlock(lk) }
		}
		return onCluster(core.LH, tcp, word, func(w core.Worker) {
			defer close(t.toB)
			a := grab(w)
			samples := p.timeOps(func(n int) {
				for i := 0; i < n; i++ {
					a()
					t.round()
				}
			})
			for i := range samples {
				samples[i] /= 2 * 1e3
			}
			p.report(name, samples)
		}, func(w core.Worker) { t.serveB(grab(w)) })
	}
	if err := handoff("node.lock_handoff_inproc_us", false); err != nil {
		return err
	}
	if err := handoff("node.lock_handoff_tcp_us", true); err != nil {
		return err
	}

	// One update round: node 0 writes a word under the lock, node 1
	// acquires and reads it (LH pulls the diff, LI invalidates and
	// fetches the page), node 0 takes the lock back.
	update := func(name string, prot core.Protocol) error {
		t := newTurns()
		var stale int
		err := onCluster(prot, false, word, func(w core.Worker) {
			defer close(t.toB)
			var seq uint64
			p.ns(name, 1e3, func(n int) {
				for i := 0; i < n; i++ {
					seq++
					w.Lock(lk)
					w.WriteU64(x, seq)
					w.Unlock(lk)
					t.round()
				}
			})
		}, func(w core.Worker) {
			var seen uint64
			t.serveB(func() {
				w.Lock(lk)
				v := w.ReadU64(x)
				w.Unlock(lk)
				if v <= seen {
					stale++
				}
				seen = v
			})
		})
		if err == nil && stale > 0 {
			err = fmt.Errorf("%s: reader saw %d stale values", name, stale)
		}
		return err
	}
	if err := update("node.update_lh_us", core.LH); err != nil {
		return err
	}
	if err := update("node.update_li_us", core.LI); err != nil {
		return err
	}

	// Barrier crossings: both nodes cross the same fixed number.
	crossings := p.count(1000)
	err = onCluster(core.LH, false, word, func(w core.Worker) {
		samples := make([]float64, probeRepeats)
		for r := range samples {
			t0 := time.Now()
			for i := 0; i < crossings; i++ {
				w.Barrier(bar)
			}
			samples[r] = float64(time.Since(t0).Nanoseconds()) / float64(crossings) / 1e3
		}
		p.report("node.barrier_inproc_us", samples)
	}, func(w core.Worker) {
		for i := 0; i < probeRepeats*crossings; i++ {
			w.Barrier(bar)
		}
	})
	if err != nil {
		return err
	}

	// Cold remote reads: node 1 touches pages homed at node 0, each once.
	// Pages of one allocation are block-assigned, so the first half of
	// the region is node 0's.
	fault := func(name string, tcp bool) error {
		// A page faults cold only once, so a repeat is bounded by the
		// cluster's 64 MiB shared space: 2 homes x 5 repeats x 1500 pages.
		pages := min(p.count(200), 1500)
		var base core.Addr
		region := func(m core.Mem) { base = m.AllocPage(2 * probeRepeats * pages * pageSize) }
		return onCluster(core.LH, tcp, region, idle, func(w core.Worker) {
			samples := make([]float64, probeRepeats)
			var v uint64
			for r := range samples {
				t0 := time.Now()
				for i := 0; i < pages; i++ {
					v += w.ReadU64(base + core.Addr((r*pages+i)*pageSize))
				}
				samples[r] = float64(time.Since(t0).Nanoseconds()) / float64(pages) / 1e3
			}
			sink = v
			p.report(name, samples)
		})
	}
	if err := fault("node.fault_inproc_us", false); err != nil {
		return err
	}
	return fault("node.fault_tcp_us", true)
}

// consensus times propose-to-done on the leader of three replicas whose
// Send is wired straight to the peers' Deliver.
func (p *prober) consensus() error {
	const voters = 3
	reps := make([]*consensus.Rep, voters)
	for i := range reps {
		i := i
		reps[i] = consensus.New(consensus.Config{
			Self: i, N: voters,
			ElectionTimeout: 2 * time.Second,
			HeartbeatEvery:  200 * time.Millisecond,
			Seed:            int64(i + 1),
			CompactEvery:    512, // the node default; keeps the persisted log bounded
			Send: func(to int, m *wire.Msg) {
				mm := *m
				mm.From = int32(i)
				reps[to].Deliver(&mm)
			},
			Apply:         func(int64, []byte) {},
			SnapshotState: func() []byte { return nil },
			InstallState:  func([]byte) {},
			Bootstrap:     true,
		}, consensus.NewStable())
	}
	for _, r := range reps {
		r.Start()
	}
	defer func() {
		for _, r := range reps {
			r.Stop()
		}
	}()
	var fail error
	done := make(chan error, 1)
	cmd := []byte("ckpt-done")
	commit := func(n int) {
		for i := 0; i < n && fail == nil; i++ {
			reps[0].Propose(cmd, func(err error) { done <- err })
			if err := <-done; err != nil {
				fail = err
			}
		}
	}
	// The bootstrapped leader commits a no-op first; wait it out.
	for deadline := time.Now().Add(5 * time.Second); ; {
		commit(1)
		if fail == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("consensus probe: %w", fail)
		}
		fail = nil
		time.Sleep(10 * time.Millisecond)
	}
	p.ns("consensus.commit_us", 1e3, commit)
	p.allocs("consensus.commit_allocs", func() { commit(1) })
	return fail
}

func (p *prober) recover() error {
	const pages = 512
	snap := &ckpt.NodeSnapshot{Episode: 1, Node: 0, VT: []int32{3, 4}}
	for i := 0; i < pages; i++ {
		data := make([]byte, pageSize)
		for j := range data {
			data[j] = byte(i + j)
		}
		snap.Pages = append(snap.Pages, ckpt.PageImage{Page: int32(i), Data: data, HomeVT: []int32{3, 4}})
	}
	mbPerS := func(name string, fn func(n int)) {
		samples := p.timeOps(fn)
		for i, ns := range samples {
			samples[i] = float64(snap.Bytes()) / ns * 1e3
		}
		p.report(name, samples)
	}
	mbPerS("recover.encode_node_mb_per_s", func(n int) {
		for i := 0; i < n; i++ {
			sink = ckpt.EncodeNode(snap)
		}
	})
	enc := ckpt.EncodeNode(snap)
	var fail error
	mbPerS("recover.decode_node_mb_per_s", func(n int) {
		for i := 0; i < n; i++ {
			s, err := ckpt.DecodeNode(enc)
			if err != nil {
				fail = err
			}
			sink = s
		}
	})
	put := func(st ckpt.Store) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				if err := st.PutNode(snap); err != nil {
					fail = err
				}
			}
		}
	}
	p.ns("recover.memstore_put_us", 1e3, put(ckpt.NewMemStore()))
	// The benchmark writes only inside its checkout: the store lives in
	// the working directory and is removed afterwards.
	dir, err := os.MkdirTemp(".", ".dsmbench-ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ds, err := ckpt.NewDirStore(dir)
	if err != nil {
		return err
	}
	p.ns("recover.dirstore_put_ms", 1e6, put(ds))
	return fail
}

// serve times Server.Do on a 1-node cluster: queue hand-off to the
// executor, a local lock re-acquire and one shared access.
func (p *prober) serve() error {
	cl, err := live.New(live.Config{Nodes: 1, Protocol: core.LH})
	if err != nil {
		return err
	}
	st, err := serve.NewStore(cl, serve.Config{Keys: serveKeys, Workers: 1})
	if err != nil {
		return err
	}
	srv := serve.NewServer(st)
	done := make(chan error, 1)
	go func() {
		_, err := cl.Run(srv.NodeWorker)
		done <- err
	}()
	var fail error
	do := func(put bool) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				if _, err := srv.Do(put, uint64(i)&(serveKeys-1), uint64(i)+1); err != nil {
					fail = err
					return
				}
			}
		}
	}
	p.ns("serve.do_get_ns", 1, do(false))
	p.ns("serve.do_put_ns", 1, do(true))
	srv.Shutdown()
	if err := <-done; err != nil {
		return err
	}
	return fail
}

func (p *prober) generator() {
	cfg := loadgen.Config{
		Clients: 1, Keys: serveKeys, Seed: 1,
		Mix: loadgen.Mix{ReadFrac: 0.95, Dist: "zipfian", Theta: 0.99},
	}
	p.ns("loadgen.gen_ns_per_req", 1, func(n int) {
		cfg.Ops = int64(n)
		sink = loadgen.ClientReqs(cfg, 0)
	})
	var h hist.Hist
	p.ns("hist.record_ns", 1, func(n int) {
		for i := 0; i < n; i++ {
			h.Record(int64(i))
		}
	})
}
