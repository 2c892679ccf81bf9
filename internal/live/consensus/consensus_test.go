package consensus

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lrcdsm/internal/live/wire"
)

// repCounters mirrors the node stat fields a replica bumps, so tests
// can assert on membership activity without a node.
type repCounters struct {
	terms, elections, commits int64
	confChanges, quarantines  int64
}

// harness wires N replicas through an in-memory network with cuttable
// links and per-replica apply logs, so protocol behavior is testable
// without the live engine. The "state machine" under replication is the
// apply log itself: its state image is the log newline-joined, so a
// replica that installs a leader's state holds the exact sequence the
// leader had applied.
type harness struct {
	t        *testing.T
	n        int
	voters   []int
	mu       sync.Mutex
	reps     []*Rep
	stables  []*Stable
	counters []repCounters
	down     []bool
	cut      map[[2]int]bool // both directions
	oneWay   map[[2]int]bool // from -> to only
	applied  [][]string      // per-replica apply log ("version:cmd")
	installs []int           // per-replica InstallState calls
	// acked is when from last sent to an append-ack, delivered or not:
	// a replica stamps the leader as heard before it acks the append,
	// so this bounds from's record of hearing to from above.
	acked map[[2]int]time.Time
}

func newHarness(t *testing.T, n int, timeout time.Duration) *harness {
	return newHarnessOpt(t, n, timeout, nil)
}

// newHarnessOpt builds a cluster with an initial voting membership
// (nil: all n nodes vote).
func newHarnessOpt(t *testing.T, n int, timeout time.Duration, voters []int) *harness {
	h := &harness{
		t: t, n: n,
		voters:   voters,
		reps:     make([]*Rep, n),
		stables:  make([]*Stable, n),
		counters: make([]repCounters, n),
		down:     make([]bool, n),
		cut:      map[[2]int]bool{},
		oneWay:   map[[2]int]bool{},
		applied:  make([][]string, n),
		installs: make([]int, n),
		acked:    map[[2]int]time.Time{},
	}
	for i := 0; i < n; i++ {
		h.stables[i] = NewStable()
		r := h.build(i, timeout)
		h.mu.Lock() // replicas already started read reps through sender
		h.reps[i] = r
		h.mu.Unlock()
		r.Start()
	}
	return h
}

func (h *harness) build(i int, timeout time.Duration) *Rep {
	c := &h.counters[i]
	return New(Config{
		Self: i, N: h.n,
		Voters:          h.voters,
		ElectionTimeout: timeout,
		HeartbeatEvery:  timeout / 10,
		Seed:            int64(42 + i),
		Send:            h.sender(i),
		Apply: func(idx int64, cmd []byte) {
			h.mu.Lock()
			h.applied[i] = append(h.applied[i], fmt.Sprintf("%d:%s", idx, cmd))
			h.mu.Unlock()
		},
		SnapshotState: func() []byte {
			h.mu.Lock()
			defer h.mu.Unlock()
			return []byte(strings.Join(h.applied[i], "\n"))
		},
		InstallState: func(app []byte) {
			h.mu.Lock()
			defer h.mu.Unlock()
			h.installs[i]++
			if len(app) == 0 {
				h.applied[i] = nil
			} else {
				h.applied[i] = strings.Split(string(app), "\n")
			}
		},
		Counters: Counters{
			Terms: &c.terms, Elections: &c.elections, Commits: &c.commits,
			ConfChanges: &c.confChanges, Quarantines: &c.quarantines,
		},
		Bootstrap: true,
	}, h.stables[i])
}

func (h *harness) sender(from int) func(int, *wire.Msg) {
	return func(to int, m *wire.Msg) {
		h.mu.Lock()
		if m.Kind == wire.KAppendAck {
			h.acked[[2]int{from, to}] = time.Now()
		}
		blocked := h.down[from] || h.down[to] || h.oneWay[[2]int{from, to}] ||
			h.cut[[2]int{from, to}] || h.cut[[2]int{to, from}]
		r := h.reps[to]
		h.mu.Unlock()
		if blocked || r == nil {
			return
		}
		mm := *m
		mm.From = int32(from)
		r.Deliver(&mm)
	}
}

func (h *harness) stopAll() {
	for _, r := range h.reps {
		r.Stop()
	}
}

// kill silences a replica's links and stops it (engine death).
func (h *harness) kill(i int) {
	h.mu.Lock()
	h.down[i] = true
	h.mu.Unlock()
	h.reps[i].Stop()
}

// restart rebuilds replica i over its surviving Stable slot. The apply
// log is reset first: a fresh incarnation rebuilds its state machine
// from the persisted state (New installs it).
func (h *harness) restart(i int, timeout time.Duration) {
	h.mu.Lock()
	h.applied[i], h.installs[i] = nil, 0
	h.mu.Unlock()
	r := h.build(i, timeout)
	h.mu.Lock()
	h.reps[i] = r
	h.down[i] = false
	h.mu.Unlock()
	r.Start()
}

// restartFresh rebuilds replica i over a brand-new Stable slot — the
// live analogue of losing the durable state entirely (disk
// replacement). The replica must be re-seeded by the leader.
func (h *harness) restartFresh(i int, timeout time.Duration) {
	h.stables[i] = NewStable()
	h.restart(i, timeout)
}

// proposeConfOK proposes a membership change on replica i and waits for
// it to resolve.
func (h *harness) proposeConfOK(i int, add bool, node int) error {
	errc := make(chan error, 1)
	h.reps[i].ProposeConf(add, node, func(err error) { errc <- err })
	select {
	case err := <-errc:
		return err
	case <-time.After(10 * time.Second):
		return fmt.Errorf("conf change (add=%v node=%d) on %d did not resolve", add, node, i)
	}
}

// waitLeader polls until exactly one live replica claims leadership and
// returns its id.
func (h *harness) waitLeader(exclude ...int) int {
	excluded := map[int]bool{}
	for _, e := range exclude {
		excluded[e] = true
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for i := 0; i < h.n; i++ {
			h.mu.Lock()
			dead := h.down[i]
			r := h.reps[i]
			h.mu.Unlock()
			if dead || excluded[i] {
				continue
			}
			if info := r.Leader(); info.IsLeader {
				return i
			}
		}
		time.Sleep(time.Millisecond)
	}
	h.t.Fatal("no leader elected within 10s")
	return -1
}

// proposeOK proposes on replica i and waits for commit.
func (h *harness) proposeOK(i int, cmd string) error {
	errc := make(chan error, 1)
	h.reps[i].Propose([]byte(cmd), func(err error) { errc <- err })
	select {
	case err := <-errc:
		return err
	case <-time.After(10 * time.Second):
		return fmt.Errorf("proposal %q on %d did not resolve", cmd, i)
	}
}

// waitApplied polls until replica i's apply log contains cmd.
func (h *harness) waitApplied(i int, cmd string) {
	h.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		h.mu.Lock()
		for _, a := range h.applied[i] {
			if strings.HasSuffix(a, ":"+cmd) {
				h.mu.Unlock()
				return
			}
		}
		h.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.t.Fatalf("replica %d never applied %q (log: %v)", i, cmd, h.applied[i])
}

// TestBootstrapCommit: a cold 3-replica cluster needs no election —
// node 0 leads term 1 — and a committed command applies on every
// replica in log order.
func TestBootstrapCommit(t *testing.T) {
	h := newHarness(t, 3, 200*time.Millisecond)
	defer h.stopAll()

	if ld := h.waitLeader(); ld != 0 {
		t.Fatalf("bootstrap leader = %d, want 0", ld)
	}
	for k := 0; k < 5; k++ {
		if err := h.proposeOK(0, fmt.Sprintf("cmd-%d", k)); err != nil {
			t.Fatalf("propose cmd-%d: %v", k, err)
		}
	}
	for i := 0; i < 3; i++ {
		h.waitApplied(i, "cmd-4")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := 1; i < 3; i++ {
		if fmt.Sprint(h.applied[i]) != fmt.Sprint(h.applied[0]) {
			t.Fatalf("replica %d apply order diverged:\n %v\nvs\n %v", i, h.applied[i], h.applied[0])
		}
	}
}

// TestProposeOnFollowerRejected: a follower refuses proposals with
// ErrNotLeader so callers redirect instead of committing nothing.
func TestProposeOnFollowerRejected(t *testing.T) {
	h := newHarness(t, 3, 200*time.Millisecond)
	defer h.stopAll()
	h.waitLeader()
	if err := h.proposeOK(1, "nope"); err != ErrNotLeader {
		t.Fatalf("follower proposal returned %v, want ErrNotLeader", err)
	}
}

// TestLeaderFailover: killing the bootstrap leader elects a survivor,
// which commits new commands on the remaining majority.
func TestLeaderFailover(t *testing.T) {
	h := newHarness(t, 3, 100*time.Millisecond)
	defer h.stopAll()

	h.waitLeader()
	if err := h.proposeOK(0, "before"); err != nil {
		t.Fatalf("pre-crash propose: %v", err)
	}
	h.kill(0)
	ld := h.waitLeader(0)
	if ld == 0 {
		t.Fatal("dead node claimed leadership")
	}
	if err := h.proposeOK(ld, "after"); err != nil {
		t.Fatalf("post-failover propose on %d: %v", ld, err)
	}
	for _, i := range []int{1, 2} {
		h.waitApplied(i, "before")
		h.waitApplied(i, "after")
	}
}

// TestRestartCatchUp: the killed bootstrap leader restarts over its
// Stable slot as a follower, adopts the new leader's term, and catches
// up on commands committed while it was down — including ones its old
// incarnation never saw.
func TestRestartCatchUp(t *testing.T) {
	h := newHarness(t, 3, 100*time.Millisecond)
	defer h.stopAll()

	h.waitLeader()
	if err := h.proposeOK(0, "epoch0"); err != nil {
		t.Fatal(err)
	}
	h.kill(0)
	ld := h.waitLeader(0)
	if err := h.proposeOK(ld, "while-down"); err != nil {
		t.Fatal(err)
	}
	h.restart(0, 100*time.Millisecond)
	h.waitApplied(0, "epoch0")
	h.waitApplied(0, "while-down")

	// The restarted replica must not have double-applied anything.
	h.mu.Lock()
	seen := map[string]int{}
	for _, a := range h.applied[0] {
		seen[a]++
	}
	h.mu.Unlock()
	for a, n := range seen {
		if n != 1 {
			t.Fatalf("entry %q applied %d times on restarted replica", a, n)
		}
	}
}

// TestPartitionedLeaderDeposed: cutting the leader away from both
// followers elects a new leader; proposals on the stale leader fail
// rather than commit, and after the partition heals the old leader
// adopts the higher term and converges on the survivors' log.
func TestPartitionedLeaderDeposed(t *testing.T) {
	h := newHarness(t, 3, 100*time.Millisecond)
	defer h.stopAll()

	h.waitLeader()
	if err := h.proposeOK(0, "shared"); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	h.cut[[2]int{0, 1}] = true
	h.cut[[2]int{0, 2}] = true
	h.mu.Unlock()

	ld := h.waitLeader(0)
	if err := h.proposeOK(ld, "majority-side"); err != nil {
		t.Fatalf("majority-side propose: %v", err)
	}
	// The stale leader, until it notices it hears no majority and steps
	// down, can still accept a proposal into its log, but it must never
	// commit: the callback must resolve with an error once
	// the healed partition deposes it.
	errc := make(chan error, 1)
	h.reps[0].Propose([]byte("stale-side"), func(err error) { errc <- err })

	h.mu.Lock()
	delete(h.cut, [2]int{0, 1})
	delete(h.cut, [2]int{0, 2})
	h.mu.Unlock()

	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("minority-partition proposal committed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stale proposal never resolved after heal")
	}
	h.waitApplied(0, "majority-side")
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, a := range h.applied[0] {
		if strings.HasSuffix(a, ":stale-side") {
			t.Fatalf("stale leader's uncommitted entry was applied: %v", h.applied[0])
		}
	}
}

// TestHeardLeaderKeepsItsTerm: a replica cut off from the leader alone
// times out and campaigns at ever higher terms, but the other voter
// still hears the leader within the minimum election timeout, so it
// neither adopts those terms nor grants the vote. The leader keeps its
// term and commits on the majority that hears it.
func TestHeardLeaderKeepsItsTerm(t *testing.T) {
	// Replica 2 adopts node 1's term only after a whole election timeout
	// without a leader append, i.e. ten missed heartbeats in a row: keep
	// that window wide enough that a descheduled race run cannot open it.
	const timeout = 200 * time.Millisecond
	h := newHarness(t, 3, timeout)
	defer h.stopAll()
	h.waitLeader()
	h.mu.Lock()
	h.cut[[2]int{0, 1}] = true
	h.mu.Unlock()

	time.Sleep(20 * timeout)
	if err := h.proposeOK(0, "kept"); err != nil {
		t.Fatalf("leader lost its majority: %v", err)
	}
	if got := h.reps[1].Leader().Term; got < 2 {
		t.Fatalf("cut-off replica's term is %d: it never campaigned", got)
	}
	for _, i := range []int{0, 2} {
		if info := h.reps[i].Leader(); info.Term != 1 || info.Leader != 0 {
			t.Errorf("replica %d is at term %d under leader %d, want term 1 under 0", i, info.Term, info.Leader)
		}
	}
	h.waitApplied(2, "kept")
}

// TestQuorumlessLeaderStepsDown is the other half of the vote-request
// rule: a leader cut off from two of four voters still reaches the
// fourth, whose heartbeats would keep it dropping the others' vote
// requests for good. The leader hears only two of four voters, so it
// steps down within an election timeout, the fourth stops hearing it,
// and the connected majority {1, 2, 3} elects a leader and commits.
func TestQuorumlessLeaderStepsDown(t *testing.T) {
	h := newHarness(t, 4, 100*time.Millisecond)
	defer h.stopAll()
	h.waitLeader()
	h.mu.Lock()
	h.cut[[2]int{0, 1}] = true
	h.cut[[2]int{0, 2}] = true
	h.mu.Unlock()

	ld := h.waitLeader(0)
	if err := h.proposeOK(ld, "majority-side"); err != nil {
		t.Fatalf("majority-side propose on %d: %v", ld, err)
	}
	for _, i := range []int{1, 2, 3} {
		h.waitApplied(i, "majority-side")
	}
	if h.reps[0].Leader().IsLeader {
		t.Error("node 0 still leads without a voter majority")
	}
}

// TestOneVoterBroadcastsCommits: a one-voter leader commits inside
// its proposal, with no round trip to wait for, and still sends the
// new slot to its learners at once. With a 1 s heartbeat, a learner that
// heard of commits only from heartbeats would lag each one by up to a
// second.
func TestOneVoterBroadcastsCommits(t *testing.T) {
	h := newHarnessOpt(t, 3, 10*time.Second, []int{0}) // HeartbeatEvery 1 s
	defer h.stopAll()

	if ld := h.waitLeader(); ld != 0 {
		t.Fatalf("leader %d, want the only voter", ld)
	}
	for k := 0; k < 5; k++ {
		cmd := fmt.Sprintf("cmd-%d", k)
		if err := h.proposeOK(0, cmd); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(100 * time.Millisecond)
		for _, i := range []int{1, 2} {
			for !h.hasApplied(i, cmd) {
				if time.Now().After(deadline) {
					t.Fatalf("learner %d has not applied %s 100ms after its commit", i, cmd)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	h.sameApplyOrder(0, 1, 2)
}

// hasApplied reports whether replica i's apply log contains cmd.
func (h *harness) hasApplied(i int, cmd string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, a := range h.applied[i] {
		if strings.HasSuffix(a, ":"+cmd) {
			return true
		}
	}
	return false
}

// TestLearnersFollowFailover: non-voters learn the log and the leader
// from the leader's appends. With voters {0, 1, 2} on five replicas,
// leader 0 cut off from 1 and 2 loses office to one of them although
// learners 3 and 4 can still reach it; the learners follow the new
// leader and apply its entries, and its Silences count 0's silence from
// before it took office, at least since it acked 0's last append, and
// the learners' from their last ack.
// (That learners' acks hold no quorum is TestLivenessCountsVoters in
// internal/live/node.)
func TestLearnersFollowFailover(t *testing.T) {
	const timeout = 100 * time.Millisecond
	h := newHarnessOpt(t, 5, timeout, []int{0, 1, 2})
	defer h.stopAll()
	h.waitLeader()
	if err := h.proposeOK(0, "before"); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{3, 4} {
		h.waitApplied(i, "before")
	}
	if s := h.reps[1].Silences(timeout); s != nil {
		t.Errorf("a follower reports silences %v", s)
	}

	h.mu.Lock()
	h.cut[[2]int{0, 1}] = true
	h.cut[[2]int{0, 2}] = true
	h.mu.Unlock()
	ld := h.waitLeader(0)
	if err := h.proposeOK(ld, "after"); err != nil {
		t.Fatalf("propose on new leader %d: %v", ld, err)
	}
	for _, i := range []int{3, 4} {
		h.waitApplied(i, "after")
		if got := h.reps[i].Leader().Leader; got != ld {
			t.Errorf("learner %d follows %d, want %d", i, got, ld)
		}
	}
	if h.reps[0].Leader().IsLeader {
		t.Error("node 0 still leads beside the new leader")
	}
	h.mu.Lock()
	since := time.Since(h.acked[[2]int{ld, 0}])
	h.mu.Unlock()
	s := h.reps[ld].Silences(timeout)
	if s == nil {
		t.Fatalf("leader %d reports no silences", ld)
	}
	if s[0] < since {
		t.Errorf("former leader silent %v, want at least the %v since %d acked its last append", s[0], since, ld)
	}
	for _, i := range []int{3, 4} {
		if s[i] >= timeout {
			t.Errorf("learner %d silent %v to the leader that replicates to it", i, s[i])
		}
	}
}

// waitInstalled polls until replica i has installed a leader's state.
func (h *harness) waitInstalled(i int, msg string) {
	h.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		h.mu.Lock()
		n := h.installs[i]
		h.mu.Unlock()
		if n > 0 {
			return
		}
		if time.Now().After(deadline) {
			h.t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// sameApplyOrder fails unless every replica in is applied exactly what
// replica ref did, in the same order.
func (h *harness) sameApplyOrder(ref int, is ...int) {
	h.t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, i := range is {
		if fmt.Sprint(h.applied[i]) != fmt.Sprint(h.applied[ref]) {
			h.t.Fatalf("replica %d apply order diverged from %d:\n %v\nvs\n %v", i, ref, h.applied[i], h.applied[ref])
		}
	}
}

// TestSnapshotCatchUp: a replica that loses its durable slot entirely
// is re-seeded by the leader's next append, which carries the state,
// and converges on the survivors' state.
func TestSnapshotCatchUp(t *testing.T) {
	h := newHarness(t, 3, 100*time.Millisecond)
	defer h.stopAll()

	h.waitLeader()
	for k := 0; k < 4; k++ {
		if err := h.proposeOK(0, fmt.Sprintf("pre-%d", k)); err != nil {
			t.Fatal(err)
		}
	}
	h.kill(1)
	for k := 0; k < 12; k++ {
		if err := h.proposeOK(0, fmt.Sprintf("post-%d", k)); err != nil {
			t.Fatal(err)
		}
	}
	h.restartFresh(1, 100*time.Millisecond)
	h.waitApplied(1, "post-11")
	h.waitInstalled(1, "re-seeded replica caught up without installing the leader's state")
	h.waitApplied(2, "post-11")
	h.sameApplyOrder(2, 1)
}

// TestLaggingReplicaCatchesUp: a replica whose appends are cut while the
// majority commits misses every version of that window; after the heal
// the leader's append carries its state, the replica installs it, and
// it goes on holding the versions that follow like the others.
func TestLaggingReplicaCatchesUp(t *testing.T) {
	h := newHarness(t, 3, 100*time.Millisecond)
	defer h.stopAll()

	h.waitLeader()
	if err := h.proposeOK(0, "shared"); err != nil {
		t.Fatal(err)
	}
	h.waitApplied(2, "shared")
	h.mu.Lock()
	h.cut[[2]int{0, 2}] = true
	h.mu.Unlock()
	for k := 0; k < 12; k++ {
		if err := h.proposeOK(0, fmt.Sprintf("cut-%d", k)); err != nil {
			t.Fatal(err)
		}
	}
	h.mu.Lock()
	delete(h.cut, [2]int{0, 2})
	h.mu.Unlock()
	h.waitApplied(2, "cut-11")
	h.waitInstalled(2, "lagging replica caught up without installing the leader's state")
	ld := h.waitLeader()
	if err := h.proposeOK(ld, "after"); err != nil {
		t.Fatalf("propose on %d after the heal: %v", ld, err)
	}
	for i := 0; i < 3; i++ {
		h.waitApplied(i, "after")
	}
	h.sameApplyOrder(ld, 0, 1, 2)
}

// TestCatchUpAcrossLeaderChange: a replica cut off while the majority
// commits is healed just as its leader dies. Its older slot loses the
// election to the other survivor's, and the new leader catches it up
// from its own state — and the apply order still converges.
func TestCatchUpAcrossLeaderChange(t *testing.T) {
	h := newHarness(t, 3, 100*time.Millisecond)
	defer h.stopAll()

	h.waitLeader()
	h.mu.Lock()
	h.cut[[2]int{0, 2}] = true
	h.cut[[2]int{1, 2}] = true
	h.mu.Unlock()
	for k := 0; k < 12; k++ {
		if err := h.proposeOK(0, fmt.Sprintf("cut-%d", k)); err != nil {
			t.Fatal(err)
		}
	}
	h.mu.Lock()
	h.cut = map[[2]int]bool{}
	h.mu.Unlock()
	h.kill(0)
	ld := h.waitLeader(0)
	if ld != 1 {
		t.Fatalf("replica %d, whose slot lacks the cut commands, was elected", ld)
	}
	if err := h.proposeOK(ld, "after"); err != nil {
		t.Fatalf("propose on new leader %d: %v", ld, err)
	}
	h.waitApplied(2, "cut-11")
	h.waitApplied(2, "after")
	h.waitInstalled(2, "lagging replica caught up without installing a leader's state")
	h.sameApplyOrder(1, 2)
}

// TestMembershipAddServesFailover: a non-voting spare is promoted by a
// committed config change, holds the whole state, and then keeps
// the cluster available through a leader crash — the scenario a live
// cluster uses to grow 3->5 or replace a dead replica without restart.
func TestMembershipAddServesFailover(t *testing.T) {
	h := newHarnessOpt(t, 4, 100*time.Millisecond, []int{0, 1, 2})
	defer h.stopAll()

	h.waitLeader()
	if err := h.proposeOK(0, "before-add"); err != nil {
		t.Fatal(err)
	}
	if err := h.proposeConfOK(0, true, 3); err != nil {
		t.Fatalf("add replica 3: %v", err)
	}
	if err := h.proposeOK(0, "after-add"); err != nil {
		t.Fatal(err)
	}
	// The promoted replica holds the whole state, including commands
	// committed before it had a vote.
	h.waitApplied(3, "before-add")
	h.waitApplied(3, "after-add")
	if c := atomic.LoadInt64(&h.counters[0].confChanges); c == 0 {
		t.Fatal("leader's conf-change counter never moved")
	}

	h.kill(0)
	ld := h.waitLeader(0)
	if err := h.proposeOK(ld, "post-failover"); err != nil {
		t.Fatalf("post-failover propose on %d: %v", ld, err)
	}
	h.waitApplied(3, "post-failover")
}

// TestMembershipRemoveFloor: removal works one server at a time but is
// refused once it would leave fewer than three voters — the smallest
// set that still tolerates a fault.
func TestMembershipRemoveFloor(t *testing.T) {
	h := newHarnessOpt(t, 4, 100*time.Millisecond, nil)
	defer h.stopAll()

	h.waitLeader()
	if err := h.proposeConfOK(0, false, 3); err != nil {
		t.Fatalf("remove replica 3 from a 4-voter set: %v", err)
	}
	if err := h.proposeConfOK(0, false, 2); err != ErrConfInvalid {
		t.Fatalf("removal below 3 voters returned %v, want ErrConfInvalid", err)
	}
	// The shrunken set still commits.
	if err := h.proposeOK(0, "three-voters"); err != nil {
		t.Fatal(err)
	}
}

// TestSelfRemovalReportsCommit: a leader that commits its own removal
// steps down at the commit and fails what is still pending, but the
// removal itself committed and its proposer hears so. Failed instead,
// the client would retry at the successor, which refuses every change
// until its first version has committed.
func TestSelfRemovalReportsCommit(t *testing.T) {
	h := newHarnessOpt(t, 4, 100*time.Millisecond, nil)
	defer h.stopAll()

	ld := h.waitLeader()
	if err := h.proposeConfOK(ld, false, ld); err != nil {
		t.Fatalf("leader %d removing itself: %v", ld, err)
	}
	if h.reps[ld].Leader().IsLeader {
		t.Errorf("removed leader %d still leads", ld)
	}
}

// TestConfPendingRejected: only one membership change may be in flight;
// a second proposal while the first is uncommitted fails fast with
// ErrConfPending instead of queueing behind an unknown outcome.
func TestConfPendingRejected(t *testing.T) {
	h := newHarnessOpt(t, 4, 100*time.Millisecond, []int{0, 1, 2})
	defer h.stopAll()

	h.waitLeader()
	// Isolate the leader so its first change stays uncommitted.
	h.mu.Lock()
	for _, p := range []int{1, 2, 3} {
		h.cut[[2]int{0, p}] = true
	}
	h.mu.Unlock()

	firstc := make(chan error, 1)
	h.reps[0].ProposeConf(true, 3, func(err error) { firstc <- err })
	if err := h.proposeConfOK(0, false, 1); err != ErrConfPending {
		t.Fatalf("second conf change returned %v, want ErrConfPending", err)
	}

	h.mu.Lock()
	for _, p := range []int{1, 2, 3} {
		delete(h.cut, [2]int{0, p})
	}
	h.mu.Unlock()
	// After the heal the stalled change resolves one way or the other
	// (commits, or fails when a higher term deposes the old leader).
	select {
	case <-firstc:
	case <-time.After(10 * time.Second):
		t.Fatal("isolated conf change never resolved after heal")
	}
}

// TestQuarantineReseed: a corrupted Stable slot is quarantined at load
// — the replica comes back fenced and empty instead of diverging on
// torn state — and the leader's next append re-seeds it with its slot.
// Once seeded the fence lifts: the replica votes in a later election,
// proving the quarantine is a recovery path and not a permanent
// demotion. (That it votes only after the re-seed is
// TestQuarantinedVotesAfterReseed.)
func TestQuarantineReseed(t *testing.T) {
	h := newHarness(t, 3, 100*time.Millisecond)
	defer h.stopAll()

	h.waitLeader()
	for k := 0; k < 12; k++ {
		if err := h.proposeOK(0, fmt.Sprintf("cmd-%d", k)); err != nil {
			t.Fatal(err)
		}
	}
	h.waitApplied(1, "cmd-11")

	h.kill(1)
	if !h.stables[1].Corrupt() {
		t.Fatal("stable slot was empty; nothing to corrupt")
	}
	h.restart(1, 100*time.Millisecond)
	if q := h.stables[1].Quarantines(); q != 1 {
		t.Fatalf("quarantine count = %d, want 1", q)
	}
	h.waitApplied(1, "cmd-11")
	h.waitInstalled(1, "quarantined replica was not re-seeded by snapshot")

	// The re-seeded replica must be able to carry an election again.
	h.kill(0)
	ld := h.waitLeader(0)
	if err := h.proposeOK(ld, "after-quarantine"); err != nil {
		t.Fatalf("post-quarantine propose on %d: %v", ld, err)
	}
	h.waitApplied(1, "after-quarantine")
}

// TestTermsMonotonicAcrossRestart: a restarted replica resumes from its
// persisted term, so it can never grant a second vote in a term its
// previous incarnation already voted in.
func TestTermsMonotonicAcrossRestart(t *testing.T) {
	h := newHarness(t, 3, 100*time.Millisecond)
	defer h.stopAll()
	h.waitLeader()
	h.kill(1)
	before := h.reps[1].Leader().Term
	h.restart(1, 100*time.Millisecond)
	if after := h.reps[1].Leader().Term; after < before {
		t.Fatalf("restarted replica forgot its term: %d < %d", after, before)
	}
}
