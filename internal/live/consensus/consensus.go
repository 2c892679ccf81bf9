// Package consensus is the replicated control plane's multi-decree log:
// a compact Raft-style replica that elects a leader with randomized
// timeouts, fences every proposal with its term, commits commands on a
// majority of the voting membership, and applies them in log order on
// every replica. It rides the live runtime's existing transport — the
// owning node feeds decoded consensus frames in through Deliver and
// supplies a Send callback for outbound ones — so the quorum shares the
// cluster's sockets, chaos middleware and epoch fencing.
//
// The state is the snapshot: every batch of applied entries is folded
// into the state image (the deterministic encoding of the applied state
// machine, captured through the SnapshotState hook), so a replica's log
// holds only its uncommitted tail. The replicated state is small enough
// for one frame, so a replica that needs entries already folded away —
// a follower that missed a commit window, a fresh or quarantined one —
// gets the leader's state inline, on an ordinary append, and installs
// it instead of replaying entries.
//
// The voting membership is dynamic: a committed single-server
// config-change entry adds or removes one voter at a time (ProposeConf,
// at most one change uncommitted at once), which keeps every old-quorum
// and new-quorum majority overlapping — the joint-safety property that
// makes one-at-a-time changes safe without joint consensus.
//
// Durable state (term, vote, snapshot, membership, log) lives in a
// Stable slot the supervisor owns outside the node engine, so a crashed
// node's fresh incarnation cannot vote twice in a term it already voted
// in or forget entries it acknowledged. Every slot is checksummed: a
// corrupt or torn slot is quarantined at load — the replica comes back
// empty, with its votes fenced until an append carrying the leader's
// state re-seeds it — rather than silently diverging or panicking.
package consensus

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lrcdsm/internal/live/codec"
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
	// uncommitted: single-server changes are only safe one at a time.
	ErrConfPending = errors.New("consensus: a membership change is already pending")
	// ErrConfInvalid rejects a membership change naming a node outside
	// the cluster or shrinking the voting set below a usable quorum.
	ErrConfInvalid = errors.New("consensus: invalid membership change")
)

// ---- durable slot ----

// durable is the decoded content of a Stable slot.
type durable struct {
	term      int64
	votedFor  int32
	snapIndex int64
	snapTerm  int64
	snapshot  []byte
	voters    []int32
	log       []wire.Entry
}

// Stable is one replica's durable consensus state, held as one encoded,
// checksummed blob. The supervisor holds one slot per node across
// restarts; a fresh incarnation loads the term it last voted in and the
// entries it last acknowledged, which is what makes a restarted replica
// safe to re-admit to the quorum. A slot whose checksum fails at load —
// a torn or corrupted write — is quarantined: the load returns empty
// state, the quarantine is counted, and the replica re-seeds from the
// leader instead of trusting bad bytes.
type Stable struct {
	mu          sync.Mutex
	blob        []byte
	quarantines int64

	// Summary fields mirrored out of the last save, so monitors can
	// sample log growth without decoding the blob.
	logLen    int
	snapIndex int64
}

// NewStable returns an empty slot (term 0, no vote, empty log).
func NewStable() *Stable { return &Stable{} }

// load decodes the slot, verifying its checksum. quarantined reports a
// corrupt slot: the returned state is empty and the slot is cleared.
func (s *Stable) load() (durable, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.blob == nil {
		return durable{votedFor: -1}, false
	}
	d, err := decodeSlot(s.blob)
	if err != nil {
		s.blob = nil
		s.logLen, s.snapIndex = 0, 0
		s.quarantines++
		return durable{votedFor: -1}, true
	}
	return d, false
}

func (s *Stable) save(d *durable) {
	b := encodeSlot(d)
	s.mu.Lock()
	s.blob = b
	s.logLen = len(d.log)
	s.snapIndex = d.snapIndex
	s.mu.Unlock()
}

// LogLen reports how many entries the slot's persisted log holds — the
// in-memory log length as of the replica's last persist.
func (s *Stable) LogLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logLen
}

// SnapIndex reports the persisted fold point: the log index the stored
// state covers, the replica's applied index (0 = none).
func (s *Stable) SnapIndex() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapIndex
}

// Quarantines reports how many corrupt loads this slot has quarantined.
func (s *Stable) Quarantines() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantines
}

// Corrupt flips one byte of the stored blob — a deliberately torn slot
// for integrity tests. It reports false if the slot is empty.
func (s *Stable) Corrupt() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.blob) == 0 {
		return false
	}
	b := append([]byte(nil), s.blob...)
	b[len(b)/2] ^= 0xFF
	s.blob = b
	return true
}

// encodeSlot serializes d with a trailing CRC32 over everything before
// it. decodeSlot is its strict inverse: any truncation, trailing bytes
// or checksum mismatch is an error, never a panic.
func encodeSlot(d *durable) []byte {
	var w codec.Writer
	w.I64(d.term)
	w.I32(d.votedFor)
	w.I64(d.snapIndex)
	w.I64(d.snapTerm)
	w.I32s(d.voters)
	w.Bytes(d.snapshot)
	w.U32(uint32(len(d.log)))
	for i := range d.log {
		w.I64(d.log[i].Term)
		w.Bytes(d.log[i].Cmd)
	}
	w.U32(crc32.ChecksumIEEE(w.B))
	return w.B
}

func decodeSlot(b []byte) (durable, error) {
	var d durable
	if len(b) < 4 {
		return d, fmt.Errorf("consensus: slot of %d bytes is short", len(b))
	}
	body := b[:len(b)-4]
	sum := codec.NewReader(b[len(body):], "consensus: slot checksum")
	if crc32.ChecksumIEEE(body) != sum.U32() {
		return d, fmt.Errorf("consensus: slot checksum mismatch")
	}
	r := codec.NewReader(body, "consensus: slot")
	d.term = r.I64()
	d.votedFor = r.I32()
	d.snapIndex = r.I64()
	d.snapTerm = r.I64()
	d.voters = r.I32s()
	d.snapshot = r.Bytes()
	n := r.Count(12) // minimum bytes per entry (term + length)
	for i := 0; i < n && r.Err() == nil; i++ {
		var e wire.Entry
		e.Term = r.I64()
		e.Cmd = r.Bytes()
		d.log = append(d.log, e)
	}
	return d, r.Done()
}

// ---- snapshot blob ----

// encodeSnap wraps the application state image with the voting
// membership as of the fold point, so an installed state seeds both the
// state machine and the receiver's config.
func encodeSnap(voters []int32, app []byte) []byte {
	w := codec.Writer{B: make([]byte, 0, 8+4*len(voters)+len(app))}
	w.I32s(voters)
	w.Bytes(app)
	return w.B
}

// decodeSnap is encodeSnap's strict inverse; app aliases b.
func decodeSnap(b []byte) (voters []int32, app []byte, err error) {
	r := codec.NewReader(b, "consensus: snapshot blob")
	voters = r.I32s()
	app = r.View()
	if err := r.Done(); err != nil {
		return nil, nil, err
	}
	return voters, app, nil
}

// ---- membership-change commands ----

// confMagic prefixes a consensus-internal config-change command in the
// replicated log; the application's Apply never sees these entries.
// Manager opcodes are small (see node/mstate.go), so the prefix cannot
// collide.
const confMagic byte = 0xC6

func encodeConfCmd(add bool, node int) []byte {
	w := codec.Writer{B: make([]byte, 0, 6)}
	w.U8(confMagic)
	w.Bool(add)
	w.I32(int32(node))
	return w.B
}

func decodeConfCmd(cmd []byte) (add bool, node int, ok bool) {
	if len(cmd) == 0 || cmd[0] != confMagic {
		return false, 0, false
	}
	r := codec.NewReader(cmd[1:], "consensus: conf command")
	add = r.Bool()
	node = int(r.I32())
	return add, node, r.Done() == nil
}

// Counters points into the owning node's stat fields; nil pointers are
// skipped so tests can run replicas without a node.
type Counters struct {
	Terms, Elections, Commits *int64
	SnapInstalls              *int64
	ConfChanges, Quarantines  *int64
}

func bump(p *int64) {
	if p != nil {
		atomic.AddInt64(p, 1)
	}
}

// Config wires a replica to its node.
type Config struct {
	Self int
	N    int

	// Voters names the initial voting membership (nil: every node in
	// [0, N)). A non-voter still runs a replica — it applies what a
	// leader sends it and can be promoted by a committed config change —
	// but never campaigns and its vote is not counted. Ignored when the
	// Stable slot already persists a membership.
	Voters []int

	// ElectionTimeout is the base leader-silence window before a
	// follower stands for election; each deadline is drawn uniformly
	// from [T, 2T) so split votes break symmetry. HeartbeatEvery is the
	// leader's empty-append cadence and must be well under T.
	ElectionTimeout time.Duration
	HeartbeatEvery  time.Duration
	Seed            int64

	// Deprecated: ignored. Every commit is folded into the state.
	CompactEvery int64

	// Send transmits one frame to a peer (never Self). It must not
	// block indefinitely; consensus tolerates dropped frames.
	Send func(to int, m *wire.Msg)
	// Apply consumes a committed entry index (1-based) with its command
	// bytes, in log order, at most once per replica lifetime: a
	// restarted replica resumes from its persisted state and applies
	// only the tail past it, and an install stands in for the entries it
	// folds, which Apply never sees. A nil/empty command is a leadership
	// no-op and is still delivered. Config-change entries are consumed
	// by the replica itself and never reach Apply.
	Apply func(index int64, cmd []byte)
	// SnapshotState captures the application state machine exactly as
	// of the applied prefix, deterministically encoded. Required; called
	// from the replica goroutine after every batch of Apply calls.
	SnapshotState func() []byte
	// InstallState replaces the application state machine with a state
	// image (the inverse of SnapshotState). Required; called from the
	// replica goroutine when a leader's inline state is installed, and
	// once from New when the slot holds a state.
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

// MaxBatch bounds entries per append frame; a lagging follower catches
// up over successive acks rather than one giant frame. An append also
// carries the state image when it must, so that image plus MaxBatch
// entries must fit one wire frame.
const MaxBatch = 64

type proposal struct {
	cmd  []byte
	conf bool
	done func(error)
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
	log      []wire.Entry // the uncommitted tail (snapIndex, lastIndex]
	commit   int64
	applied  int64
	leader   int // current hint, -1 unknown
	votes    map[int]bool
	next     []int64
	match    []int64
	pending  map[int64][]func(error)
	electAt  time.Time // follower/candidate: election deadline
	beatAt   time.Time // leader: next heartbeat

	// heard[p] is when this replica last heard from peer p, in unix
	// nanoseconds: a follower stamps its leader's appends, a leader
	// every peer's acks. It is the one failure detector:
	// check-quorum reads the voters' stamps, and the owning node's
	// liveness sweep reads every peer's through Silences, from another
	// goroutine. followed is the last leader this replica followed (-1:
	// none), the one peer a new leader keeps a stamp for (takeOffice).
	heard    []atomic.Int64
	followed int

	// The fold point: every applied entry is folded into snap, the
	// encoded state covering [1, snapIndex]; snapIndex is the applied
	// index and its entry had term snapTerm.
	snapIndex int64
	snapTerm  int64
	snap      []byte

	// Membership state: the voting set, and the log index of an
	// uncommitted config change (0 = none; at most one at a time).
	voters      map[int]bool
	confPending int64

	// fenced marks a replica whose slot was quarantined at load: it
	// must not vote or campaign — its lost slot may have held a vote
	// for the current term — and it refuses plain entry replay,
	// NACKing appends with Flag 2 until an append carrying the leader's
	// state re-seeds it.
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
		next:     make([]int64, cfg.N),
		match:    make([]int64, cfg.N),
		heard:    make([]atomic.Int64, cfg.N),
		followed: -1,
		pending:  map[int64][]func(error){},
		voters:   map[int]bool{},
	}
	d, quarantined := st.load()
	if quarantined {
		r.fenced = true
		bump(cfg.Counters.Quarantines)
	}
	r.term, r.votedFor = d.term, d.votedFor
	r.snapIndex, r.snapTerm, r.snap = d.snapIndex, d.snapTerm, d.snapshot
	r.log = d.log
	r.commit, r.applied = d.snapIndex, d.snapIndex
	switch {
	case len(d.voters) > 0:
		for _, v := range d.voters {
			r.voters[int(v)] = true
		}
	case cfg.Voters != nil:
		for _, v := range cfg.Voters {
			if v >= 0 && v < cfg.N {
				r.voters[v] = true
			}
		}
	default:
		for p := 0; p < cfg.N; p++ {
			r.voters[p] = true
		}
	}
	if len(r.snap) > 0 {
		// The state machine resumes from the persisted state; the
		// uncommitted tail applies on top as commit advances.
		if _, app, err := decodeSnap(r.snap); err == nil {
			cfg.InstallState(app)
		}
	}
	if cfg.Bootstrap && !quarantined && r.term == 0 && len(r.log) == 0 && r.snapIndex == 0 {
		// Cold cluster: every replica deterministically agrees node 0
		// leads term 1, as if an election already ran.
		r.term, r.votedFor = 1, 0
		r.persist()
		if cfg.Self == 0 {
			r.role = leader
			r.leader = 0
		} else {
			r.leader = 0
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
// re-append, candidates re-elect).
func (r *Rep) Deliver(m *wire.Msg) {
	select {
	case r.inbox <- m:
	case <-r.quit:
	default:
	}
}

// Propose submits a command for quorum commit. done fires exactly once,
// from the replica goroutine: nil after the command is committed and
// applied locally, or an error if this replica is not the leader, loses
// leadership first, or stops.
func (r *Rep) Propose(cmd []byte, done func(error)) {
	r.submit(proposal{cmd: cmd, done: done})
}

// ProposeConf submits a single-server membership change: add (or
// remove) node as a voter. At most one change may be uncommitted at a
// time (ErrConfPending); a change that would shrink the voting set
// below three or names a node outside the cluster is rejected
// (ErrConfInvalid). done fires like Propose's.
func (r *Rep) ProposeConf(add bool, node int, done func(error)) {
	r.submit(proposal{cmd: encodeConfCmd(add, node), conf: true, done: done})
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
		r.beatAt = time.Now().Add(r.cfg.HeartbeatEvery)
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
			r.beatAt = now.Add(r.cfg.HeartbeatEvery)
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

// stepDown turns a leader that has not heard a voter majority within an
// election timeout into a follower of its own term (check-quorum, Raft
// thesis §6.2). It is probably on the minority side of a partition, and
// while it leads, the voters that still hear it drop the vote requests
// that could elect a leader among the rest (step).
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

func (r *Rep) lastIndex() int64 { return r.snapIndex + int64(len(r.log)) }

// entryAt returns the entry at 1-based index i, which must lie in
// (snapIndex, lastIndex].
func (r *Rep) entryAt(i int64) *wire.Entry { return &r.log[i-r.snapIndex-1] }

func (r *Rep) termAt(i int64) int64 {
	switch {
	case i == r.snapIndex:
		return r.snapTerm
	case i <= r.snapIndex || i > r.lastIndex():
		return 0
	default:
		return r.entryAt(i).Term
	}
}

func (r *Rep) votersList() []int32 {
	vs := make([]int32, 0, len(r.voters))
	for v := range r.voters {
		vs = append(vs, int32(v))
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

func (r *Rep) persist() {
	r.st.save(&durable{
		term: r.term, votedFor: r.votedFor,
		snapIndex: r.snapIndex, snapTerm: r.snapTerm, snapshot: r.snap,
		voters: r.votersList(), log: r.log,
	})
}

func (r *Rep) updateInfo() {
	vs := make([]int, 0, len(r.voters))
	for v := range r.voters {
		vs = append(vs, v)
	}
	sort.Ints(vs)
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
	bump(r.cfg.Counters.Terms)
	if wasLeader {
		r.failPending(ErrDeposed)
	}
	r.resetElectionTimer()
	r.updateInfo()
}

func (r *Rep) failPending(err error) {
	for idx, cbs := range r.pending {
		for _, cb := range cbs {
			cb(err)
		}
		delete(r.pending, idx)
	}
}

func (r *Rep) startElection() {
	if !r.voters[r.cfg.Self] || r.fenced {
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
	bump(r.cfg.Counters.Terms)
	bump(r.cfg.Counters.Elections)
	r.resetElectionTimer()
	r.updateInfo()
	if r.wonElection() {
		r.becomeLeader()
		return
	}
	for p := range r.voters {
		if p == r.cfg.Self {
			continue
		}
		r.cfg.Send(p, &wire.Msg{
			Kind: wire.KVoteReq, Term: r.term,
			LogIndex: r.lastIndex(), LogTerm: r.termAt(r.lastIndex()),
		})
	}
}

func (r *Rep) wonElection() bool { return 2*len(r.votes) > len(r.voters) }

func (r *Rep) becomeLeader() {
	r.role = leader
	r.leader = r.cfg.Self
	for p := 0; p < r.cfg.N; p++ {
		r.next[p] = r.lastIndex() + 1
		r.match[p] = 0
	}
	r.match[r.cfg.Self] = r.lastIndex()
	r.takeOffice()
	// Re-derive the one-pending-change gate from the uncommitted log
	// suffix: a config entry a dead leader appended is now ours to see
	// through before any new change is admitted.
	r.confPending = 0
	for i := r.commit + 1; i <= r.lastIndex(); i++ {
		if _, _, ok := decodeConfCmd(r.entryAt(i).Cmd); ok {
			r.confPending = i
		}
	}
	r.updateInfo()
	// Commit an entry of our own term immediately so the leader's
	// applied state machine is current before it serves reads.
	r.appendLocal(nil)
	r.broadcast()
	r.fold()
	r.beatAt = time.Now().Add(r.cfg.HeartbeatEvery)
}

func (r *Rep) appendLocal(cmd []byte) int64 {
	r.log = append(r.log, wire.Entry{Term: r.term, Cmd: cmd})
	r.persist()
	idx := r.lastIndex()
	r.match[r.cfg.Self] = idx
	r.advanceCommit()
	return idx
}

func (r *Rep) propose(p proposal) {
	if r.role != leader {
		p.done(ErrNotLeader)
		return
	}
	if p.conf {
		add, nd, _ := decodeConfCmd(p.cmd)
		if err := r.confAllowed(add, nd); err != nil {
			p.done(err)
			return
		}
		if add == r.voters[nd] {
			p.done(nil) // already in the desired state
			return
		}
	}
	idx := r.appendLocal(p.cmd)
	if p.conf {
		r.confPending = idx
	}
	if r.pending[idx] != nil || idx > r.applied {
		r.pending[idx] = append(r.pending[idx], p.done)
	} else {
		// Single-voter quorum: the entry already committed and applied
		// inside appendLocal. The learners hear of it now, not at the
		// next heartbeat.
		p.done(nil)
	}
	r.broadcast()
	r.fold()
	r.beatAt = time.Now().Add(r.cfg.HeartbeatEvery)
}

func (r *Rep) confAllowed(add bool, nd int) error {
	if nd < 0 || nd >= r.cfg.N {
		return ErrConfInvalid
	}
	if r.confPending != 0 {
		return ErrConfPending
	}
	if !add && r.voters[nd] && len(r.voters) <= 3 {
		// Shrinking below three voters leaves a quorum that cannot
		// survive the failures it exists for.
		return ErrConfInvalid
	}
	return nil
}

// broadcast appends to every peer. Non-voters are learners: they learn
// the leader and the log and ack like voters, so every peer's stamp
// moves each heartbeat, but their acks count toward no commit and no
// quorum.
func (r *Rep) broadcast() {
	for p := 0; p < r.cfg.N; p++ {
		if p != r.cfg.Self {
			r.sendAppend(p)
		}
	}
}

// sendAppend sends peer to the entries after its next index. When those
// lie at or before the fold point, the append starts at the fold point
// and carries the state instead (Data): the entries folded into it are
// gone, and the state fits one frame.
func (r *Rep) sendAppend(to int) {
	m := &wire.Msg{Kind: wire.KAppend, Term: r.term, Commit: r.commit}
	prev := max(r.next[to]-1, 0)
	if prev < r.snapIndex {
		prev = r.snapIndex
		m.Data = r.snap
	}
	m.LogIndex, m.LogTerm = prev, r.termAt(prev)
	if n := min(r.lastIndex()-prev, MaxBatch); n > 0 {
		base := prev - r.snapIndex
		m.Entries = append([]wire.Entry(nil), r.log[base:base+n]...)
	}
	r.cfg.Send(to, m)
}

func (r *Rep) advanceCommit() {
	for idx := r.commit + 1; idx <= r.lastIndex(); idx++ {
		if r.termAt(idx) != r.term {
			continue // only entries of the current term commit by counting
		}
		n := 0
		for p := range r.voters {
			if r.match[p] >= idx {
				n++
			}
		}
		if 2*n > len(r.voters) {
			r.commit = idx
		}
	}
	r.applyCommitted()
}

func (r *Rep) applyCommitted() {
	for r.applied < r.commit {
		r.applied++
		e := r.entryAt(r.applied)
		bump(r.cfg.Counters.Commits)
		// Taken before the entry applies: a leader that commits its own
		// removal steps down in applyConf and fails what is still
		// pending, but this entry is committed.
		cbs := r.pending[r.applied]
		delete(r.pending, r.applied)
		if add, nd, ok := decodeConfCmd(e.Cmd); ok {
			r.applyConf(add, nd)
		} else if r.cfg.Apply != nil {
			r.cfg.Apply(r.applied, e.Cmd)
		}
		if r.confPending != 0 && r.applied >= r.confPending {
			r.confPending = 0
		}
		for _, cb := range cbs {
			cb(nil)
		}
	}
}

// applyConf applies a committed single-server membership change. The
// change takes effect at commit on every replica; because changes are
// serialized one at a time, any majority of the pre-change voters and
// any majority of the post-change voters overlap, so no two leaders can
// be elected by disjoint quorums across the transition.
func (r *Rep) applyConf(add bool, nd int) {
	if nd < 0 || nd >= r.cfg.N {
		return
	}
	changed := false
	if add {
		if !r.voters[nd] {
			r.voters[nd] = true
			changed = true
		}
	} else if r.voters[nd] {
		delete(r.voters, nd)
		changed = true
	}
	if !changed {
		return
	}
	bump(r.cfg.Counters.ConfChanges)
	r.persist()
	// A promoted learner was already replicated to, and a demoted voter
	// keeps learning (an install in flight included).
	if !add && nd == r.cfg.Self && r.role == leader {
		// We removed ourselves: step down and let the remaining voters
		// elect.
		r.role, r.leader = follower, -1
		r.failPending(ErrDeposed)
		r.resetElectionTimer()
	}
	r.updateInfo()
}

// fold folds the applied entries into the state and drops them from
// the log, leaving only the uncommitted tail. Every replica folds
// independently: the state machine is deterministic, so equal applied
// indexes mean equal states. A leader folds after the appends that
// carry a commit, not before: a peer that acked everything up to the
// entry then gets the entry, not the whole state in its place.
func (r *Rep) fold() {
	if r.applied <= r.snapIndex {
		return
	}
	r.snap = encodeSnap(r.votersList(), r.cfg.SnapshotState())
	r.snapTerm = r.termAt(r.applied)
	r.log = r.log[r.applied-r.snapIndex:]
	r.snapIndex = r.applied
	r.persist()
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

func (r *Rep) onVoteReq(m *wire.Msg) {
	granted := false
	if m.Term == r.term && !r.fenced && (r.votedFor == -1 || r.votedFor == m.From) {
		last := r.lastIndex()
		upToDate := m.LogTerm > r.termAt(last) ||
			(m.LogTerm == r.termAt(last) && m.LogIndex >= last)
		if upToDate {
			granted = true
			if r.votedFor != m.From {
				r.votedFor = m.From
				r.persist()
			}
			r.resetElectionTimer()
		}
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
	if !r.voters[int(m.From)] {
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

func (r *Rep) onAppend(m *wire.Msg) {
	if m.Term < r.term {
		r.cfg.Send(int(m.From), &wire.Msg{Kind: wire.KAppendAck, Term: r.term})
		return
	}
	// m.Term == r.term: the sender is the legitimate leader of this term.
	r.followLeader(m)
	if len(m.Data) > 0 {
		r.catchUp(m.LogIndex, m.LogTerm, m.Data)
	}
	if r.fenced {
		// A quarantined slot means our durable history is gone: refuse
		// entry replay outright and demand the leader's state (Flag 2),
		// so the re-seed never trusts replayed state against an empty
		// match point.
		r.cfg.Send(int(m.From), &wire.Msg{Kind: wire.KAppendAck, Term: r.term, Flag: 2})
		return
	}
	prev := m.LogIndex
	logTerm := m.LogTerm
	entries := m.Entries
	if prev < r.snapIndex {
		// Our state already covers part of this append: skip the
		// entries folded into it and rebase the match point onto the
		// fold point.
		skip := r.snapIndex - prev
		if skip >= int64(len(entries)) {
			r.cfg.Send(int(m.From), &wire.Msg{
				Kind: wire.KAppendAck, Term: r.term, LogIndex: r.snapIndex, Flag: 1,
			})
			return
		}
		logTerm = entries[skip-1].Term
		entries = entries[skip:]
		prev = r.snapIndex
	}
	if prev > r.lastIndex() || r.termAt(prev) != logTerm {
		// Match-point miss: back the leader up past our shorter/conflicting
		// suffix in one hop.
		hint := prev - 1
		if last := r.lastIndex(); hint > last {
			hint = last
		}
		if hint < r.snapIndex {
			hint = r.snapIndex
		}
		r.cfg.Send(int(m.From), &wire.Msg{
			Kind: wire.KAppendAck, Term: r.term, LogIndex: hint,
		})
		return
	}
	changed := false
	for i, e := range entries {
		idx := prev + int64(i) + 1
		if idx <= r.lastIndex() {
			if r.termAt(idx) == e.Term {
				continue
			}
			r.log = r.log[:idx-r.snapIndex-1] // conflict: truncate our divergent suffix
		}
		// Clone the command bytes: e.Cmd sub-slices the decoded frame,
		// and the log outlives the frame buffer by the whole run.
		r.log = append(r.log, wire.Entry{Term: e.Term, Cmd: append([]byte(nil), e.Cmd...)})
		changed = true
	}
	if changed {
		r.persist()
	}
	newLast := prev + int64(len(entries))
	if m.Commit > r.commit {
		c := m.Commit
		if last := r.lastIndex(); c > last {
			c = last
		}
		r.commit = c
		r.applyCommitted()
		r.fold()
	}
	r.cfg.Send(int(m.From), &wire.Msg{
		Kind: wire.KAppendAck, Term: r.term, LogIndex: newLast, Flag: 1,
	})
}

func (r *Rep) onAppendAck(m *wire.Msg) {
	if r.role != leader || m.Term != r.term {
		return
	}
	from := int(m.From)
	r.heard[from].Store(time.Now().UnixNano())
	if m.Flag == 2 {
		// A fenced replica refuses replay: re-seed it with the state,
		// which an append from the fold point carries. With nothing
		// applied there is nothing to seed from, and the next heartbeat
		// retries.
		r.next[from] = r.snapIndex
		r.match[from] = 0
		if r.snapIndex > 0 {
			r.sendAppend(from)
		}
		return
	}
	if m.Flag == 1 {
		if m.LogIndex > r.match[from] {
			r.match[from] = m.LogIndex
		}
		if m.LogIndex+1 > r.next[from] {
			r.next[from] = m.LogIndex + 1
		}
		r.advanceCommit()
		if r.next[from] <= r.lastIndex() {
			r.sendAppend(from) // keep a lagging follower streaming
		}
		r.fold()
		return
	}
	// Mismatch: adopt the follower's back-up hint and retry.
	hint := m.LogIndex + 1
	if hint < 1 {
		hint = 1
	}
	if hint < r.next[from] {
		r.next[from] = hint
	} else if r.next[from] > 1 {
		r.next[from]--
	}
	r.sendAppend(from)
}

// catchUp brings this replica up to a leader's fold point (idx, tm),
// whose state an append carried, when it has not applied that far or
// is fenced. A replica whose log holds the entry at the fold point
// holds every entry before it too (log matching), and they are
// committed: it applies its own copies. Any other installs the state.
func (r *Rep) catchUp(idx, tm int64, blob []byte) {
	switch {
	case !r.fenced && idx <= r.applied:
	case !r.fenced && idx <= r.lastIndex() && r.termAt(idx) == tm:
		r.commit = idx
		r.applyCommitted()
		r.fold()
	default:
		r.installSnapshot(idx, tm, blob)
	}
}

// installSnapshot replaces this replica's state machine and log with a
// leader's state at fold point (idx, tm). The log goes: catchUp installs
// only when the entry at the fold is missing or has another term, and
// then nothing after it is the leader's either. It also lifts the
// quarantine fence: the replica now holds leader-certified durable
// state again.
func (r *Rep) installSnapshot(idx, tm int64, blob []byte) {
	voters, app, err := decodeSnap(blob)
	if err != nil {
		return // corrupt frame; the leader's next append carries it again
	}
	// Clone the state: blob sub-slices the frame, and the fold point
	// outlives it.
	r.snapIndex, r.snapTerm, r.snap = idx, tm, append([]byte(nil), blob...)
	r.log = nil
	r.commit, r.applied = idx, idx
	r.voters = map[int]bool{}
	for _, v := range voters {
		r.voters[int(v)] = true
	}
	r.cfg.InstallState(app)
	r.fenced = false
	r.persist()
	bump(r.cfg.Counters.SnapInstalls)
	r.updateInfo()
}
