package live

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/consensus"
	"lrcdsm/internal/live/node"
	ckpt "lrcdsm/internal/live/recover"
	"lrcdsm/internal/live/transport"
)

// RecoverOptions parameterizes RunSupervised's crash-recovery policy.
type RecoverOptions struct {
	// MaxRestarts bounds how many node restarts the supervisor performs;
	// the next crash ends the run with a *node.PeerDownError naming its
	// victim. Zero or negative means no restarts: the first crash ends
	// the run, and no checkpoints are taken.
	MaxRestarts int
	// CheckpointEvery takes a barrier-aligned checkpoint at every episode
	// divisible by it (default 1: every barrier) when MaxRestarts is
	// positive.
	CheckpointEvery int64
	// Replicate streams every non-manager checkpoint to the manager's
	// store, so a node whose own store dies with it can still rejoin.
	Replicate bool
	// Stores supplies one checkpoint store per node; nil selects fresh
	// in-memory stores.
	Stores []ckpt.Store
	// Seed drives the consensus replicas' election timers (default 1).
	Seed int64
	// LoseStore replaces the victim's store with an empty one
	// before it rejoins, forcing the page pull from the manager's
	// replica (requires Replicate; RunSupervised refuses it without).
	LoseStore bool
	// Crashes is the run's kill schedule, keyed on protocol events (see
	// Crash). The supervisor kills each victim itself, whether or not the
	// restart budget can bring it back.
	Crashes []Crash
	// Stables supplies one durable consensus slot per node; nil selects
	// fresh slots. Injecting them lets a harness inspect log growth or
	// corrupt a slot mid-run (integrity soaks).
	Stables []*consensus.Stable
	// Voters, when positive and below the cluster size, restricts the
	// initial voting membership to nodes [0, Voters); the rest run
	// non-voting replicas until promoted (AddReplicas, or
	// Node.ChangeMembership). Zero means every node votes.
	Voters int
	// AddReplicas schedules runtime membership growth: each entry
	// promotes Node to a voter once After has elapsed, retried through
	// whichever replica currently leads until the change commits.
	AddReplicas []ReplicaAdd
}

// ReplicaAdd schedules one runtime voter promotion.
type ReplicaAdd struct {
	Node  int
	After time.Duration
}

// kill crashes node victim: its engine and transport are torn down
// mid-run, exactly as if the process died. The supervisor then rolls the
// cluster back to the last stable checkpoint and restarts the node after
// restartAfter, or ends the run when the restart budget cannot cover it.
// Safe to call from any goroutine (the kill schedule calls it from
// inside a node's event).
func (c *Cluster) kill(victim int, restartAfter time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if victim < 0 || victim >= len(c.nodes) || c.nodes[victim] == nil {
		return
	}
	c.crashPending.Store(true)
	// Queue the event before closing: by the time any worker can observe
	// the closure, the supervisor can already see the crash.
	select {
	case c.crashCh <- crashEvent{victim: victim, restartAfter: restartAfter}:
	default:
	}
	c.nodes[victim].Close()
	c.trs[victim].Close()
}

// RunSupervised executes worker on every node concurrently and returns
// the run's statistics. It ends in nil, the root cause of a failed run
// (pickErr), or a *node.PeerDownError naming a node the cluster lost.
// Within the restart budget it survives node crashes (the kill
// schedule, or death detected by the manager's liveness machinery): the
// cluster rolls back to the last barrier-aligned checkpoint every node
// has confirmed, the victim rejoins with a fresh transport incarnation
// and restored state, and every worker re-executes — replaying its
// private state up to the checkpoint against a scratch image, then
// continuing live.
func (c *Cluster) RunSupervised(worker func(core.Worker), opts RecoverOptions) (*Stats, error) {
	// Every input is checked before anything changes: a refused call
	// leaves the cluster as it found it.
	switch {
	case c.ran:
		return nil, fmt.Errorf("live: Cluster already ran")
	case c.brk == 0:
		return nil, fmt.Errorf("live: no shared memory allocated")
	case opts.LoseStore && !opts.Replicate:
		return nil, fmt.Errorf("live: LoseStore requires Replicate (the victim's only checkpoint copy is the manager's replica)")
	case opts.Stores != nil && len(opts.Stores) != c.cfg.Nodes:
		return nil, fmt.Errorf("live: %d checkpoint stores for %d nodes", len(opts.Stores), c.cfg.Nodes)
	case opts.Stables != nil && len(opts.Stables) != c.cfg.Nodes:
		return nil, fmt.Errorf("live: %d consensus slots for %d nodes", len(opts.Stables), c.cfg.Nodes)
	case opts.Voters > 0 && opts.Voters < c.cfg.Nodes && opts.Voters < 3:
		return nil, fmt.Errorf("live: initial voting membership of %d is below a usable quorum", opts.Voters)
	}
	sched, err := c.scheduleCrashes(opts.Crashes)
	if err != nil {
		return nil, err
	}
	c.ran = true
	every := int64(0)
	if opts.MaxRestarts > 0 {
		every = max(opts.CheckpointEvery, 1)
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	stores := opts.Stores
	if stores == nil {
		stores = make([]ckpt.Store, c.cfg.Nodes)
		for i := range stores {
			stores[i] = ckpt.NewMemStore()
		}
	}

	npages := int(c.pageOf(c.brk-1)) + 1
	homes := c.homeAssignment(npages)

	var (
		epoch        uint32
		incarnations = make([]uint32, c.cfg.Nodes)
		restarts     atomic.Int64
	)
	// The manager state machine is replicated on every node through the
	// consensus log, so a crashed coordinator fails over instead of
	// aborting the run wherever a majority of the voters survives it.
	// The durable term/vote/log state outlives each node incarnation: a
	// restarted replica rejoins the voting group with its history intact.
	stables := opts.Stables
	if stables == nil {
		stables = make([]*consensus.Stable, c.cfg.Nodes)
		for i := range stables {
			stables[i] = consensus.NewStable()
		}
	}
	var voters []int
	if opts.Voters > 0 && opts.Voters < c.cfg.Nodes {
		voters = make([]int, opts.Voters)
		for i := range voters {
			voters[i] = i
		}
	}
	leaderHint := 0
	rcFor := func(i int) node.RecoverConfig {
		rc := node.RecoverConfig{
			Store:       stores[i],
			Every:       every,
			Replicate:   opts.Replicate,
			Epoch:       epoch,
			Incarnation: incarnations[i],
			Seed:        opts.Seed + int64(i+1)*104729,
			Voters:      voters,
			Consensus:   stables[i],
			LeaderHint:  leaderHint,
		}
		rc.OnPeerDown = func(pe *node.PeerDownError) bool {
			// Dispatcher goroutine: hand the failure to the supervisor
			// while budget remains. A rollback already in flight swallows
			// the report — the victim is either the same node or will be
			// re-detected after recovery — and does so before the budget
			// is consulted: the restart being spent is already counted,
			// and a slow rollback's own victim, silent past the timeout,
			// must not read as a fresh death the budget cannot cover.
			if c.crashPending.Load() {
				return true
			}
			if int(restarts.Load()) >= opts.MaxRestarts {
				return false
			}
			if c.crashPending.CompareAndSwap(false, true) {
				select {
				case c.crashCh <- crashEvent{victim: pe.Node}:
				default:
				}
			}
			return true
		}
		return rc
	}

	trs := c.cfg.Net.Transports()
	nodes := make([]*node.Node, c.cfg.Nodes)
	for i := range nodes {
		nodes[i] = node.New(trs[i], c.nodeConfig(npages, homes, rcFor(i)))
	}
	c.mu.Lock()
	c.nodes = nodes
	c.trs = trs
	c.mu.Unlock()
	for _, nd := range nodes {
		nd.Start()
	}

	// Runtime membership growth: each scheduled promotion is retried
	// through the cluster's current engines until the change commits —
	// an unsettled election or a rollback in flight only delays it.
	confStop := make(chan struct{})
	defer close(confStop)
	for _, ar := range opts.AddReplicas {
		go func(ar ReplicaAdd) {
			timer := time.NewTimer(ar.After)
			defer timer.Stop()
			select {
			case <-timer.C:
			case <-confStop:
				return
			}
			for {
				c.mu.Lock()
				nds := append([]*node.Node(nil), c.nodes...)
				c.mu.Unlock()
				for _, nd := range nds {
					if nd == nil {
						continue
					}
					if err := nd.ChangeMembership(true, ar.Node); err == nil {
						return
					}
				}
				select {
				case <-time.After(25 * time.Millisecond):
				case <-confStop:
					return
				}
			}
		}(ar)
	}

	teardown := func() {
		c.mu.Lock()
		nds := append([]*node.Node(nil), c.nodes...)
		ts := append([]transport.Transport(nil), c.trs...)
		c.mu.Unlock()
		for _, nd := range nds {
			nd.Close()
		}
		for _, tr := range ts {
			tr.Close()
		}
	}

	// launch starts one worker per node; errCh fires once per worker
	// failure, doneCh once when the whole round has unwound.
	launch := func() (doneCh chan []error, errCh chan int) {
		doneCh = make(chan []error, 1)
		errCh = make(chan int, c.cfg.Nodes)
		go func() {
			errs := make([]error, c.cfg.Nodes)
			var wg sync.WaitGroup
			for i, nd := range nodes {
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
							errCh <- i
						}
					}()
					worker(nd)
					nd.FinalFlush()
				}(i, nd)
			}
			wg.Wait()
			doneCh <- errs
		}()
		return doneCh, errCh
	}

	// fail ends the run: it tears the cluster down, waits for the round
	// still running (doneCh; nil once it has unwound) and returns err, or
	// the round's own error when err is nil.
	fail := func(doneCh chan []error, first int, err error) (*Stats, error) {
		teardown()
		if doneCh != nil {
			if errs := <-doneCh; err == nil {
				err = pickErr(nodes, errs, first)
			}
		}
		for _, nd := range nodes {
			nd.Wait()
		}
		return nil, err
	}

	// budgetExhausted is the structured abort for a crash the restart
	// budget can no longer cover.
	budgetExhausted := func(victim int) error {
		return &node.PeerDownError{
			Node:    victim,
			Pending: fmt.Sprintf("restart budget exhausted (%d restarts used)", restarts.Load()),
		}
	}

	// rollback reads the stable checkpoint and resets the replicated
	// manager state, addressing whichever replica currently leads. The
	// leader is re-resolved (and the calls retried) until a surviving
	// replica both claims leadership and commits the reset — an election
	// may still be in flight when the crash is handled, and the first
	// claimed leader can be deposed mid-proposal. A failed rollback
	// leaves the victim down for good, and says so: the error is a
	// PeerDownError naming it, never the internal cause on its own.
	rollback := func(victim int) (int64, error) {
		var lastErr error
		deadline := time.Now().Add(time.Minute)
		for time.Now().Before(deadline) {
			// A further kill while the budget is spent ends the run now: the
			// survivors may have lost their quorum with it, and polling out
			// the deadline for a leader that cannot come would only delay
			// the verdict the budget check is about to give anyway. With
			// budget left the event stays queued for the next round.
			if int(restarts.Load()) >= opts.MaxRestarts && len(c.crashCh) > 0 {
				return 0, budgetExhausted((<-c.crashCh).victim)
			}
			ldr := -1
			for i, nd := range nodes {
				if i == victim {
					continue
				}
				if _, isLeader := nd.ConsensusLeader(); isLeader {
					ldr = i
					break
				}
			}
			if ldr < 0 {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			k, err := nodes[ldr].StableCheckpoint()
			if err == nil {
				err = nodes[ldr].ResetManager(k, victim)
			}
			if err == nil {
				leaderHint = ldr
				return k, nil
			}
			lastErr = err
			time.Sleep(50 * time.Millisecond)
		}
		if lastErr == nil {
			lastErr = fmt.Errorf("no consensus leader elected among the survivors")
		}
		return 0, &node.PeerDownError{Node: victim, Pending: "rollback: " + lastErr.Error()}
	}

	var (
		killedTotal node.Stats
		recoveryNs  int64
	)
	t0 := time.Now()
	for {
		doneCh, errCh := launch()
		var (
			ev      crashEvent
			crashed bool
		)
		select {
		case ev = <-c.crashCh:
			crashed = true
		case first := <-errCh:
			// A worker failed. If a crash event is already queued this
			// is (or races with) a rollback; otherwise it is a genuine
			// failure and the run ends with its root cause.
			select {
			case ev = <-c.crashCh:
				crashed = true
			default:
				return fail(doneCh, first, nil)
			}
		case errs := <-doneCh:
			doneCh = nil
			// Every failed worker reported on errCh before the round
			// unwound; the first report names the root cause.
			first := -1
			select {
			case first = <-errCh:
			default:
			}
			err := pickErr(nodes, errs, first)
			select {
			case ev = <-c.crashCh:
				// A crash landed as the round finished. If every worker
				// already completed cleanly the results are flushed and
				// final — the late crash changes nothing.
				crashed = err != nil
			default:
			}
			if !crashed {
				if err != nil {
					return fail(nil, -1, err)
				}
				goto finished
			}
		}

		// ---- crash: roll back, rejoin, re-run ----
		// The budget is judged first: a spent one names the victim even
		// where the voting group would survive it.
		if int(restarts.Load()) >= opts.MaxRestarts {
			return fail(doneCh, -1, budgetExhausted(ev.victim))
		}
		if !votersSurvive(nodes, ev.victim) {
			// No survivor can be elected to lead the rollback: below
			// three nodes, node 0 is the whole voting group.
			return fail(doneCh, -1, &node.PeerDownError{
				Node: ev.victim, Pending: "the manager's voting group lost its majority with it",
			})
		}
		restarts.Add(1)
		tRec := time.Now()

		// Unwind every worker; their rollback panics (and the victim's
		// death) are forgiven. Interrupting the victim's dead engine is
		// harmless and speeds up a compute-bound worker's exit.
		if doneCh != nil {
			for _, nd := range nodes {
				nd.InterruptWorker(&node.RollbackError{Victim: ev.victim})
			}
			<-doneCh
		}

		// Fence the old epoch everywhere before touching any state, so
		// in-flight pre-rollback frames cannot land on rolled-back nodes.
		epoch++
		for i, nd := range nodes {
			if i != ev.victim {
				nd.SetEpoch(epoch)
			}
		}

		k, err := rollback(ev.victim)
		if err != nil {
			return fail(nil, -1, err)
		}
		for i, nd := range nodes {
			if i == ev.victim {
				continue
			}
			var snap *ckpt.NodeSnapshot
			if k > 0 {
				s, gerr := stores[i].GetNode(k, i)
				if gerr != nil {
					return fail(nil, -1, &node.PeerDownError{
						Node: i, Pending: fmt.Sprintf("lost stable checkpoint %d: %v", k, gerr),
					})
				}
				snap = s
			}
			nd.ResetToCheckpoint(snap)
			nd.ClearInterrupt()
			nd.BeginReplay(k)
		}

		// The killed incarnation's counters would vanish with the engine;
		// fold them into the run total.
		ks := nodes[ev.victim].Stats()
		killedTotal.Add(&ks)

		if ev.restartAfter > 0 {
			time.Sleep(ev.restartAfter)
		}
		if opts.LoseStore {
			stores[ev.victim] = ckpt.NewMemStore()
		}

		tr, err := c.cfg.Net.Rejoin(ev.victim)
		if err != nil {
			return fail(nil, -1, &node.PeerDownError{Node: ev.victim, Pending: "rebuilding its transport: " + err.Error()})
		}
		incarnations[ev.victim]++
		fresh := node.New(tr, c.nodeConfig(npages, homes, rcFor(ev.victim)))
		c.mu.Lock()
		c.nodes[ev.victim] = fresh
		c.trs[ev.victim] = tr
		nodes = c.nodes
		c.mu.Unlock()
		fresh.Start()
		if err := fresh.JoinCluster(); err != nil {
			if len(c.crashCh) > 0 {
				// Another crash landed during the handshake — possibly
				// killing the rejoining node itself. Let the next round's
				// crash handling roll back again from here.
				recoveryNs += time.Since(tRec).Nanoseconds()
				continue
			}
			return fail(nil, -1, &node.PeerDownError{Node: ev.victim, Pending: "rejoin: " + err.Error()})
		}
		if sched != nil {
			sched.rejoined()
		}
		if len(c.crashCh) == 0 {
			c.crashPending.Store(false)
		}
		recoveryNs += time.Since(tRec).Nanoseconds()
	}

finished:
	elapsed := time.Since(t0)
	c.gatherFinal(nodes, homes)
	teardown()
	for _, nd := range nodes {
		nd.Wait()
	}
	st := c.collectStats(nodes, &killedTotal)
	st.ElapsedNs = elapsed.Nanoseconds()
	st.Restarts = restarts.Load()
	st.RecoveryNs = recoveryNs
	return st, nil
}

// votersSurvive reports whether the manager's voting group keeps a
// majority without victim, as the first surviving node sees the group.
func votersSurvive(nodes []*node.Node, victim int) bool {
	for i, nd := range nodes {
		if i == victim {
			continue
		}
		voters := nd.ConsensusVoters()
		left := 0
		for _, v := range voters {
			if v != victim {
				left++
			}
		}
		return 2*left > len(voters)
	}
	return false
}
