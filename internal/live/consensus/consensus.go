// Package consensus is the replicated control plane's one-slot register:
// a compact Raft-style replica that elects a leader with randomized
// timeouts and term fences, and replicates the whole state machine
// instead of a log of commands. It rides the live runtime's transport:
// the owning node feeds consensus frames in through Deliver and sends
// through a Send callback, so the quorum shares the cluster's sockets,
// chaos middleware and epoch fencing.
//
// The log is one slot, (slotTerm, version, state), where the state
// image (SnapshotState plus the voting membership) fits one frame. The
// leader applies proposals as it admits them, turns each batch into the
// next version, and sends its latest slot on every append; a follower
// installs any slot newer than its own. A version of the leader's term
// commits on a voter majority, versions commit in order, votes compare
// (slotTerm, version), and a new leader's first version — a no-op of
// its term — commits what its predecessors left in flight. Membership
// changes are single-server, one uncommitted at a time.
//
// Durable state (term, vote, slot) lives in a checksummed Stable slot
// the supervisor keeps across restarts; a corrupt slot is quarantined
// at load and the replica votes for no one until it accepts a leader's
// slot (DESIGN.md §15–16).
package consensus

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lrcdsm/internal/live/wire"
)

// Proposals are rejected rather than queued when the replica cannot
// commit them; callers redirect to the current leader and retry.
var (
	ErrNotLeader = errors.New("consensus: not the leader")
	ErrDeposed   = errors.New("consensus: lost leadership before commit")
	ErrStopped   = errors.New("consensus: replica stopped")
	ErrBusy      = errors.New("consensus: proposal queue full")
	// ErrConfPending rejects a membership change while another is still
	// uncommitted, or before the leader's first version has committed:
	// single-server changes are only safe one at a time.
	ErrConfPending = errors.New("consensus: a membership change is already pending")
	// ErrConfInvalid rejects a membership change naming a node outside
	// the cluster or shrinking the voting set below a usable quorum.
	ErrConfInvalid = errors.New("consensus: invalid membership change")
)

// Counters points into the owning node's stat fields; nil pointers are
// skipped so tests can run replicas without a node.
type Counters struct {
	Terms, Elections, Commits *int64
	ConfChanges, Quarantines  *int64
}

func bump(p *int64, n int64) {
	if p != nil {
		atomic.AddInt64(p, n)
	}
}

// Config wires a replica to its node.
type Config struct {
	Self int
	N    int

	// Voters names the initial voting membership (nil: every node in
	// [0, N)). A non-voter still runs a replica — it installs what a
	// leader sends it and can be promoted by a committed config change —
	// but never campaigns and its vote is not counted. Ignored when the
	// Stable slot already holds a state.
	Voters []int

	// ElectionTimeout is the base leader-silence window before a
	// follower stands for election; each deadline is drawn uniformly
	// from [T, 2T) so split votes break symmetry. HeartbeatEvery is the
	// leader's re-send cadence and must be well under T.
	ElectionTimeout time.Duration
	HeartbeatEvery  time.Duration
	Seed            int64

	// Deprecated: ignored. The replicated log is one slot.
	CompactEvery int64

	// Send transmits one frame to a peer (never Self). It must not
	// block indefinitely; consensus tolerates dropped frames.
	Send func(to int, m *wire.Msg)
	// Apply consumes a command on the leader, as the leader admits it,
	// with the version that will carry it (several commands admitted
	// together share one). A follower never applies: it installs the
	// leader's state. A nil/empty command is a leadership no-op and is
	// still delivered. Membership changes (ProposeConf) change the
	// voters the state carries and never reach Apply.
	Apply func(version int64, cmd []byte)
	// SnapshotState captures the application state machine,
	// deterministically encoded. Required; called from the replica
	// goroutine after the commands of each new version are applied.
	SnapshotState func() []byte
	// InstallState replaces the application state machine with a state
	// image (the inverse of SnapshotState). Required; called from the
	// replica goroutine when a newer slot is accepted, and once from New
	// when the Stable slot holds a state.
	InstallState func(app []byte)
	// LeaderChange reports every observed leadership or term change.
	// Optional.
	LeaderChange func(term int64, leader int, isLeader bool)

	// Bootstrap seeds a cold cluster (empty Stable everywhere) with
	// node 0 as leader of term 1, skipping the startup election. A
	// replica restarting with non-empty state — or one whose slot was
	// quarantined — ignores it.
	Bootstrap bool

	Counters Counters
}

const (
	follower = iota
	candidate
	leader
)

// proposal is a command for Apply, or a membership change (conf: add
// or remove voter node).
type proposal struct {
	cmd       []byte
	conf, add bool
	node      int
	done      func(error)
}

// waiter is an admitted proposal's callback, due when version commits.
type waiter struct {
	version int64
	done    func(error)
}

// Info is a point-in-time leadership snapshot.
type Info struct {
	Term     int64
	Leader   int // -1 unknown
	IsLeader bool
	Voters   []int // sorted voting membership
}

// Rep is one consensus replica. All protocol state is owned by the
// event-loop goroutine; Deliver/Propose/Leader are safe from any
// goroutine.
type Rep struct {
	cfg Config
	st  *Stable
	rng *rand.Rand

	inbox chan *wire.Msg
	props chan proposal
	quit  chan struct{}
	done  chan struct{}
	once  sync.Once

	// Event-loop state.
	role     int
	term     int64
	votedFor int32
	leader   int // current hint, -1 unknown
	votes    map[int]bool
	electAt  time.Time // follower/candidate: election deadline
	beatAt   time.Time // leader: next heartbeat

	// The slot: the newest state this replica holds, its version, and
	// the term of the leader that made it.
	slotTerm int64
	version  int64
	state    []byte

	// Leader state: match[p] is the newest version of this term peer p
	// acknowledged, commit the newest committed version (the
	// predecessors' last version at takeover), waiters the admitted
	// proposals in version order.
	match   []int64
	commit  int64
	waiters []waiter

	// heard[p] is when this replica last heard from peer p, in unix
	// nanoseconds: a follower stamps its leader's appends, a leader
	// every peer's acks. It is the one failure detector:
	// check-quorum reads the voters' stamps, and the owning node's
	// liveness sweep reads every peer's through Silences, from another
	// goroutine. followed is the last leader this replica followed (-1:
	// none), the one peer a new leader keeps a stamp for (takeOffice).
	heard    []atomic.Int64
	followed int

	// Membership state: the voting set, sorted, and the version that must
	// commit before another change is admitted (0 = none).
	voters      []int32
	confPending int64

	// fenced marks a replica whose slot was quarantined at load: it
	// must not vote or campaign — its lost slot may have held a vote for
	// the current term — until it has accepted a leader's slot.
	fenced bool

	info atomic.Value // Info
}

// New builds a replica over st. Call Start to run it.
func New(cfg Config, st *Stable) *Rep {
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = 500 * time.Millisecond
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = cfg.ElectionTimeout / 10
	}
	r := &Rep{
		cfg:      cfg,
		st:       st,
		rng:      rand.New(rand.NewSource(cfg.Seed*1315423911 + int64(cfg.Self)<<8 + 1)),
		inbox:    make(chan *wire.Msg, 1024),
		props:    make(chan proposal, 256),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		leader:   -1,
		votes:    map[int]bool{},
		match:    make([]int64, cfg.N),
		heard:    make([]atomic.Int64, cfg.N),
		followed: -1,
	}
	d, quarantined := st.load()
	if quarantined {
		r.fenced = true
		bump(cfg.Counters.Quarantines, 1)
	}
	r.term, r.votedFor = d.term, d.votedFor
	voters, app, err := decodeSnap(d.state)
	if len(d.state) > 0 && err == nil {
		// The state machine resumes from the persisted state.
		r.slotTerm, r.version, r.state, r.voters = d.slotTerm, d.version, d.state, voters
		cfg.InstallState(app)
	} else {
		for p := 0; p < cfg.N; p++ {
			if cfg.Voters == nil || slices.Contains(cfg.Voters, p) {
				r.voters = append(r.voters, int32(p))
			}
		}
	}
	if cfg.Bootstrap && !quarantined && r.term == 0 && r.version == 0 {
		// Cold cluster: every replica deterministically agrees node 0
		// leads term 1, as if an election already ran. Term 1 has no
		// predecessor to commit for, so node 0 sends its empty slot
		// (version 0) until its first proposal makes version 1.
		r.term, r.votedFor, r.leader = 1, 0, 0
		r.persist()
		if cfg.Self == 0 {
			r.role = leader
		}
	}
	r.updateInfo()
	return r
}

// Start launches the event loop. Every peer counts as heard at the
// start, and a replica that knows its leader (a bootstrap follower of
// node 0) follows it from then on, so a leader that never sends a frame
// is as silent as one that dies at once (takeOffice).
func (r *Rep) Start() {
	now := time.Now().UnixNano()
	for p := range r.heard {
		r.heard[p].Store(now)
	}
	r.followed = r.leader
	go r.run()
}

// Stop terminates the loop and fails outstanding proposals.
func (r *Rep) Stop() {
	r.once.Do(func() { close(r.quit) })
	<-r.done
}

// Deliver hands a decoded consensus frame to the replica. Never blocks:
// a full inbox drops the frame (retransmission is inherent — leaders
// re-send their slot every heartbeat, candidates re-elect).
func (r *Rep) Deliver(m *wire.Msg) {
	select {
	case r.inbox <- m:
	case <-r.quit:
	default:
	}
}

// Propose submits a command for quorum commit. done fires exactly once,
// from the replica goroutine: nil after the version carrying the
// command has committed, or an error if this replica is not the leader,
// loses leadership first, or stops.
func (r *Rep) Propose(cmd []byte, done func(error)) {
	r.submit(proposal{cmd: cmd, done: done})
}

// ProposeConf submits a single-server membership change: add (or
// remove) node as a voter. At most one change may be uncommitted at a
// time (ErrConfPending); a change that would shrink the voting set
// below three or names a node outside the cluster is rejected
// (ErrConfInvalid). done fires like Propose's.
func (r *Rep) ProposeConf(add bool, node int, done func(error)) {
	r.submit(proposal{conf: true, add: add, node: node, done: done})
}

func (r *Rep) submit(p proposal) {
	if p.done == nil {
		p.done = func(error) {}
	}
	select {
	case r.props <- p:
	case <-r.quit:
		p.done(ErrStopped)
	default:
		p.done(ErrBusy)
	}
}

// Leader reports the replica's current view of leadership.
func (r *Rep) Leader() Info {
	return r.info.Load().(Info)
}

func (r *Rep) run() {
	defer close(r.done)
	defer r.failPending(ErrStopped)
	if r.role == leader {
		r.broadcast()
	} else {
		r.resetElectionTimer()
	}
	tick := r.cfg.HeartbeatEvery / 2
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-r.quit:
			return
		case m := <-r.inbox:
			r.step(m)
		case p := <-r.props:
			r.propose(p)
		case <-ticker.C:
			r.tickTimers()
		}
	}
}

func (r *Rep) tickTimers() {
	now := time.Now()
	if r.role == leader {
		if !r.heardQuorum(r.Leader().Voters, now.UnixNano(), r.cfg.ElectionTimeout) {
			r.stepDown()
			return
		}
		if now.After(r.beatAt) {
			r.broadcast()
		}
		return
	}
	if now.After(r.electAt) {
		r.startElection()
	}
}

// takeOffice starts a new leader's record: every peer counts as heard
// now, so none is judged on silence from before this replica led —
// except the leader it last followed, whose appends it was hearing.
// That silence is what got this replica elected, and it keeps counting,
// so a dead former leader is named as soon as if nobody had changed
// office.
func (r *Rep) takeOffice() {
	now := time.Now().UnixNano()
	for p := range r.heard {
		if p != r.followed {
			r.heard[p].Store(now)
		}
	}
}

// silence is how long peer p has gone unheard at now (unix nanoseconds).
func (r *Rep) silence(p int, now int64) time.Duration {
	return time.Duration(now - r.heard[p].Load())
}

// heardQuorum reports whether a majority of voters, this replica
// included, was heard within window of now (unix nanoseconds).
func (r *Rep) heardQuorum(voters []int, now int64, window time.Duration) bool {
	heard := 0
	for _, v := range voters {
		if v == r.cfg.Self || r.silence(v, now) < window {
			heard++
		}
	}
	return 2*heard > len(voters)
}

// Silences reports how long each peer has been silent to this leader:
// the time since its last ack, or since this replica took office if
// that is later (takeOffice). Self's entry is zero. It returns nil
// unless this replica leads and heard a voter majority within window —
// check-quorum deposes a leader that has not within the election
// timeout, and a shorter window withholds a probably partitioned
// leader's verdicts until check-quorum catches up. Safe from any
// goroutine.
func (r *Rep) Silences(window time.Duration) []time.Duration {
	info := r.Leader()
	now := time.Now().UnixNano()
	if !info.IsLeader || !r.heardQuorum(info.Voters, now, window) {
		return nil
	}
	out := make([]time.Duration, len(r.heard))
	for p := range out {
		if p != r.cfg.Self {
			out[p] = r.silence(p, now)
		}
	}
	return out
}

// Heard stamps peer p as heard now, for the owning node to vouch for a
// peer the consensus traffic has not had the chance to reach (one that
// just rejoined, or every peer after a rollback). Safe from any
// goroutine.
func (r *Rep) Heard(p int) {
	if p >= 0 && p < len(r.heard) {
		r.heard[p].Store(time.Now().UnixNano())
	}
}

// stepDown turns a leader into a follower of its own term: on
// check-quorum (Raft thesis §6.2), when it has not heard a voter
// majority within an election timeout — it is probably on the minority
// side of a partition, and while it leads, the voters that still hear it
// drop the vote requests that could elect a leader among the rest
// (step) — and once its own removal has committed.
func (r *Rep) stepDown() {
	r.role, r.leader = follower, -1
	r.failPending(ErrDeposed)
	r.resetElectionTimer()
	r.updateInfo()
}

func (r *Rep) resetElectionTimer() {
	t := r.cfg.ElectionTimeout
	r.electAt = time.Now().Add(t + time.Duration(r.rng.Int63n(int64(t))))
}

func (r *Rep) isVoter(p int) bool { return slices.Contains(r.voters, int32(p)) }

func (r *Rep) persist() {
	r.st.save(&durable{
		term: r.term, votedFor: r.votedFor,
		slotTerm: r.slotTerm, version: r.version, state: r.state,
	})
}

func (r *Rep) updateInfo() {
	vs := make([]int, len(r.voters))
	for i, v := range r.voters {
		vs[i] = int(v)
	}
	r.info.Store(Info{Term: r.term, Leader: r.leader, IsLeader: r.role == leader, Voters: vs})
	if r.cfg.LeaderChange != nil {
		r.cfg.LeaderChange(r.term, r.leader, r.role == leader)
	}
}

// adoptTerm steps down into t's follower. ldr is the known leader of t
// (-1 when learned from a vote exchange).
func (r *Rep) adoptTerm(t int64, ldr int) {
	wasLeader := r.role == leader
	r.term, r.votedFor, r.role, r.leader = t, -1, follower, ldr
	r.votes = map[int]bool{}
	r.persist()
	bump(r.cfg.Counters.Terms, 1)
	if wasLeader {
		r.failPending(ErrDeposed)
	}
	r.resetElectionTimer()
	r.updateInfo()
}

func (r *Rep) failPending(err error) {
	ws := r.waiters
	r.waiters = nil
	for _, w := range ws {
		w.done(err)
	}
}

func (r *Rep) startElection() {
	if !r.isVoter(r.cfg.Self) || r.fenced {
		// A non-voter (or a quarantined replica awaiting its re-seed)
		// never campaigns; it waits for a leader to reach it.
		r.resetElectionTimer()
		return
	}
	r.role = candidate
	r.term++
	r.votedFor = int32(r.cfg.Self)
	r.leader = -1
	r.votes = map[int]bool{r.cfg.Self: true}
	r.persist()
	bump(r.cfg.Counters.Terms, 1)
	bump(r.cfg.Counters.Elections, 1)
	r.resetElectionTimer()
	r.updateInfo()
	if r.wonElection() {
		r.becomeLeader()
		return
	}
	for _, p := range r.voters {
		if int(p) == r.cfg.Self {
			continue
		}
		r.cfg.Send(int(p), &wire.Msg{
			Kind: wire.KVoteReq, Term: r.term, LogIndex: r.version, LogTerm: r.slotTerm,
		})
	}
}

func (r *Rep) wonElection() bool { return 2*len(r.votes) > len(r.voters) }

// becomeLeader takes office with a no-op version of the new term at
// once. It carries whatever the predecessors left uncommitted, so its
// commit commits that too (a leader counts only its own term's
// versions), and until it has committed no membership change is
// admitted: a predecessor's uncommitted change may still be in flight,
// and two changes in flight break the overlap of majorities. The first
// term has no predecessor (a cold cluster elects, or bootstraps, with
// every slot empty).
func (r *Rep) becomeLeader() {
	r.role, r.leader = leader, r.cfg.Self
	clear(r.match)
	r.commit = r.version
	r.takeOffice()
	r.updateInfo()
	r.confPending = 0
	if r.term > 1 {
		r.confPending = r.version + 1
	}
	if r.cfg.Apply != nil {
		r.cfg.Apply(r.version+1, nil)
	}
	r.newVersion()
}

// propose turns p, and every proposal queued behind it, into the next
// version: each command is applied as it is admitted, so the version's
// state is the state machine after all of them.
func (r *Rep) propose(p proposal) {
	admitted := false
	for more := true; more; {
		admitted = r.admit(p) || admitted
		select {
		case p = <-r.props:
		default:
			more = false
		}
	}
	if admitted {
		r.newVersion()
	}
}

// admit applies p to the leader's state as part of the next version and
// queues its callback, or answers it at once. It reports whether p
// changed the state.
func (r *Rep) admit(p proposal) bool {
	if r.role != leader {
		p.done(ErrNotLeader)
		return false
	}
	next := r.version + 1
	if p.conf {
		if err := r.confAllowed(p.add, p.node); err != nil {
			p.done(err)
			return false
		}
		if p.add == r.isVoter(p.node) {
			p.done(nil) // already in the desired state
			return false
		}
		nd := int32(p.node)
		if r.voters = slices.DeleteFunc(r.voters, func(v int32) bool { return v == nd }); p.add {
			r.voters = append(r.voters, nd)
			slices.Sort(r.voters)
		}
		r.confPending = next
		bump(r.cfg.Counters.ConfChanges, 1)
		r.updateInfo()
	} else if r.cfg.Apply != nil {
		r.cfg.Apply(next, p.cmd)
	}
	r.waiters = append(r.waiters, waiter{version: next, done: p.done})
	return true
}

func (r *Rep) confAllowed(add bool, nd int) error {
	if nd < 0 || nd >= r.cfg.N {
		return ErrConfInvalid
	}
	if r.confPending != 0 {
		return ErrConfPending
	}
	if !add && r.isVoter(nd) && len(r.voters) <= 3 {
		// Shrinking below three voters leaves a quorum that cannot
		// survive the failures it exists for.
		return ErrConfInvalid
	}
	return nil
}

// newVersion seals the leader's state as the next version of its term,
// persists it, sends it to every peer, and counts its own copy toward
// the commit.
func (r *Rep) newVersion() {
	r.slotTerm, r.version = r.term, r.version+1
	r.state = encodeSnap(r.voters, r.cfg.SnapshotState())
	r.persist()
	r.broadcast()
	r.match[r.cfg.Self] = r.version
	r.advanceCommit()
}

// broadcast sends the slot to every peer. Non-voters are learners: they
// install the state and ack like voters, so every peer's stamp moves
// each heartbeat, but their acks count toward no commit and no quorum.
func (r *Rep) broadcast() {
	for p := 0; p < r.cfg.N; p++ {
		if p != r.cfg.Self {
			r.cfg.Send(p, &wire.Msg{Kind: wire.KAppend, Term: r.term, LogIndex: r.version, Data: r.state})
		}
	}
	r.beatAt = time.Now().Add(r.cfg.HeartbeatEvery)
}

// advanceCommit commits the newest version a voter majority holds and
// answers the proposals it carries, in version order. A leader that
// removed itself steps down once the removal commits, and before it
// answers the removal's proposer, who then finds it no longer leading.
func (r *Rep) advanceCommit() {
	c := r.commit
	for _, v := range r.voters {
		if m := r.match[v]; m > c && r.heldByMajority(m) {
			c = m
		}
	}
	if c == r.commit {
		return
	}
	bump(r.cfg.Counters.Commits, c-r.commit)
	r.commit = c
	n := 0
	for n < len(r.waiters) && r.waiters[n].version <= c {
		n++
	}
	due := r.waiters[:n]
	r.waiters = r.waiters[n:]
	if r.confPending != 0 && c >= r.confPending {
		r.confPending = 0
		if !r.isVoter(r.cfg.Self) {
			r.stepDown()
		}
	}
	for _, w := range due {
		w.done(nil)
	}
}

// heldByMajority reports whether a voter majority acknowledged version v.
func (r *Rep) heldByMajority(v int64) bool {
	n := 0
	for _, p := range r.voters {
		if r.match[p] >= v {
			n++
		}
	}
	return 2*n > len(r.voters)
}

func (r *Rep) step(m *wire.Msg) {
	if m.Kind == wire.KVoteReq && m.Term > r.term && r.leader >= 0 &&
		(r.role == leader || r.silence(r.leader, time.Now().UnixNano()) < r.cfg.ElectionTimeout) {
		// A replica that heard from the current leader within the minimum
		// election timeout neither adopts a vote request's newer term nor
		// grants it (Raft thesis §4.2.3): a node cut off from the leader
		// alone cannot depose a leader the other voters still hear. A
		// leader still hears a voter majority, or stepDown has run.
		return
	}
	if m.Term > r.term {
		ldr := -1
		if m.Kind == wire.KAppend {
			ldr = int(m.From)
		}
		r.adoptTerm(m.Term, ldr)
	}
	switch m.Kind {
	case wire.KVoteReq:
		r.onVoteReq(m)
	case wire.KVoteResp:
		r.onVoteResp(m)
	case wire.KAppend:
		r.onAppend(m)
	case wire.KAppendAck:
		r.onAppendAck(m)
	}
}

// below reports whether slot (t1, v1) is older than slot (t2, v2).
func below(t1, v1, t2, v2 int64) bool { return t1 < t2 || (t1 == t2 && v1 < v2) }

func (r *Rep) onVoteReq(m *wire.Msg) {
	granted := false
	if m.Term == r.term && !r.fenced && (r.votedFor == -1 || r.votedFor == m.From) &&
		!below(m.LogTerm, m.LogIndex, r.slotTerm, r.version) {
		granted = true
		if r.votedFor != m.From {
			r.votedFor = m.From
			r.persist()
		}
		r.resetElectionTimer()
	}
	resp := &wire.Msg{Kind: wire.KVoteResp, Term: r.term}
	if granted {
		resp.Flag = 1
	}
	r.cfg.Send(int(m.From), resp)
}

func (r *Rep) onVoteResp(m *wire.Msg) {
	if r.role != candidate || m.Term != r.term || m.Flag != 1 {
		return
	}
	if !r.isVoter(int(m.From)) {
		return // only voters count toward the majority
	}
	r.votes[int(m.From)] = true
	if r.wonElection() {
		r.becomeLeader()
	}
}

// followLeader adopts m's sender as the legitimate leader of the
// current term (its append proves it).
func (r *Rep) followLeader(m *wire.Msg) {
	if r.role != follower || r.leader != int(m.From) {
		wasLeader := r.role == leader
		r.role, r.leader = follower, int(m.From)
		r.votes = map[int]bool{}
		if wasLeader {
			r.failPending(ErrDeposed)
		}
		r.updateInfo()
	}
	r.heard[m.From].Store(time.Now().UnixNano())
	r.followed = int(m.From)
	r.resetElectionTimer()
}

// onAppend accepts the leader's slot unless it is below this replica's
// own (a reordered, older append), and acks the version it holds of the
// leader's term (0: none yet).
func (r *Rep) onAppend(m *wire.Msg) {
	if m.Term < r.term {
		r.cfg.Send(int(m.From), &wire.Msg{Kind: wire.KAppendAck, Term: r.term})
		return
	}
	// m.Term == r.term: the sender is the legitimate leader of this term,
	// and every slot it sends is of its own term, but for a bootstrap
	// leader's empty one (version 0), which holds nothing to install.
	r.followLeader(m)
	if m.LogIndex > 0 && below(r.slotTerm, r.version, m.Term, m.LogIndex) {
		r.accept(m.Term, m.LogIndex, m.Data)
	}
	ack := &wire.Msg{Kind: wire.KAppendAck, Term: r.term}
	if r.slotTerm == r.term {
		ack.LogIndex = r.version
	}
	r.cfg.Send(int(m.From), ack)
}

// accept installs a leader's slot: the state machine and the voting
// membership it carries. It also lifts the quarantine fence: the
// replica holds leader-certified durable state again.
func (r *Rep) accept(term, version int64, state []byte) {
	voters, app, err := decodeSnap(state)
	if err != nil {
		return // a corrupt frame; the next heartbeat carries the slot again
	}
	r.slotTerm, r.version, r.state, r.voters = term, version, state, voters
	r.cfg.InstallState(app)
	r.fenced = false
	r.persist()
	r.updateInfo()
}

func (r *Rep) onAppendAck(m *wire.Msg) {
	if r.role != leader || m.Term != r.term {
		return
	}
	from := int(m.From)
	r.heard[from].Store(time.Now().UnixNano())
	if m.LogIndex > r.match[from] {
		r.match[from] = m.LogIndex
		r.advanceCommit()
	}
}
