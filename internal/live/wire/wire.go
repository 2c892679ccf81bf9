// Package wire is the binary codec of the live DSM runtime's message
// set. Every frame moved by a transport (in-process channel or TCP) is
// one encoded Msg: a header common to every kind (version, kind, sender,
// token, epoch, piggybacked flush acks) followed by kind-dependent
// fields, all in little-endian fixed-width encoding.
//
// Decode is strict and total: truncated frames, a foreign version byte,
// unknown kinds, oversized counts and trailing garbage all return an
// error and never panic or allocate unboundedly — element counts are
// validated against the bytes actually remaining before any slice is
// sized.
package wire

import (
	"fmt"

	"lrcdsm/internal/live/codec"
	"lrcdsm/internal/page"
)

// Version is stamped on every encoded frame and is the only version
// Decode accepts. Every node of a cluster is built from the same source,
// so there is no older peer to stay compatible with; the byte changes
// whenever the kind numbering or a kind's field list does, so a frame
// from a different build is rejected instead of misparsed. Version 16
// made the consensus log one slot: an append carries the leader's state
// and its version, with no entries, commit index or previous-entry
// match, and an append-ack the version the follower holds.
const Version = 16

// MaxFrame is the largest frame Decode accepts (and Encode will produce
// for any sane page size); a length-prefixed transport should enforce the
// same bound before buffering a frame.
const MaxFrame = 16 << 20

// Kind identifies a message type.
type Kind uint8

// The live protocol's message set. Page and diff traffic flows between a
// node and a page's home; lock traffic between a node, the lock's home
// and its probable owner; barrier traffic up and down the barrier tree;
// recovery traffic between a node and the manager leader; consensus
// traffic among the manager replicas.
const (
	// KPageReq asks a page's home for a full current copy.
	KPageReq Kind = iota + 1
	// KPageReply returns the home's copy and its per-writer version.
	KPageReply
	// KDiffReq asks a page's home for the diffs the requester's copy is
	// missing (lazy-hybrid update pulls).
	KDiffReq
	// KDiffReply returns the missing diffs — or, if the home has pruned
	// its diff log past the requester's version, a full copy.
	KDiffReply
	// KWriteNotices flushes a closed interval's write notices and the
	// diffs of the pages homed at the destination, stamped with the
	// sender's barrier episode so homes can gate post-checkpoint flushes
	// during capture.
	KWriteNotices
	// KAck answers the manager requests that need no payload in reply
	// (Token names the request); with Token 0 it is a standalone carrier
	// of flush acks (Acks) that found no other frame to ride.
	KAck
	// KLockReq asks a lock's home for the lock, carrying the requester's
	// vector time.
	KLockReq
	// KLockGrant hands the lock to a requester with the release-time
	// vector time and the write notices it is missing.
	KLockGrant
	// KBarArrive joins a barrier episode, carrying the closed interval,
	// the arriver's vector time and the notices aggregated from its
	// subtree of the barrier tree.
	KBarArrive
	// KBarDepart releases a node from a barrier with the merged vector
	// time and the write notices it is missing.
	KBarDepart
	// KAbort broadcasts a fatal cluster abort with a structured reason,
	// stamped with the sender's consensus term so a deposed leader's
	// stale verdict is fenced.
	KAbort

	// Recovery: a restarted node's rejoin and checkpoint replication.

	// KJoinReq is a restarted node's request to rejoin the cluster.
	KJoinReq
	// KJoinGrant admits a joiner: the checkpoint episode the cluster
	// resumed from, and the vector time of the leader's replica of the
	// joiner's snapshot of it (empty: the leader holds none).
	KJoinGrant
	// KSnapReq asks the manager leader for one page of the joiner's
	// replica (Episode, Page); a KPageReply answers it.
	KSnapReq
	// KSnapPush carries one page image of a node's snapshot to the
	// manager leader, unacknowledged: Page, its home version (VT) and
	// the image (Data). A KSnapSeal stores the pushed pages.
	KSnapPush
	// KResume tells the manager a rejoined node is live again, re-arming
	// its liveness accounting.
	KResume
	// KCkptDone confirms a node has durably stored its snapshot for an
	// episode; the manager's stable checkpoint is the minimum confirmed
	// episode across nodes.
	KCkptDone

	// Decentralized synchronization: lock forwarding and the barrier
	// tree's release fan-out.

	// KLockForward relays a lock request from the lock's home to its
	// probable owner: Token and VT are the original requester's, ReqFrom
	// names the requester so the owner can grant to it directly.
	KLockForward
	// KBarRelease fans a completed barrier episode down the barrier tree
	// with the merged vector time and the episode's aggregated notices.
	KBarRelease

	// The replicated control plane: the manager replicas' one-slot
	// consensus log, a slot being (slot term, version, state).

	// KVoteReq is a candidate's request for a vote in Term, carrying its
	// slot's version (LogIndex) and slot term (LogTerm) so voters can
	// refuse a candidate with an older slot.
	KVoteReq
	// KVoteResp answers a vote request: Flag is 1 if the vote was
	// granted in Term.
	KVoteResp
	// KAppend is the leader's append/heartbeat to every replica,
	// non-voters included: its latest slot, of its own term — the
	// version (LogIndex) and the encoded state (Data), which fits one
	// frame.
	KAppend
	// KAppendAck answers an append, and is the sender's liveness stamp
	// at the leader: LogIndex is the version of the leader's term the
	// follower holds (0: none).
	KAppendAck
	// KNotLeader is a replica's redirect reply to a manager RPC it
	// cannot serve: Leader names the replica's current leader hint (-1
	// for unknown) so the client can re-resolve and retry.
	KNotLeader
	// KConfChange asks the manager leader to commit a single-server
	// membership change: Flag is 1 to add (0 to remove) the voting
	// replica named by ReqFrom. At most one change may be uncommitted
	// at a time.
	KConfChange
	// KConfAck answers a membership change: Flag is 1 once the change
	// committed, 0 with Err naming the rejection reason.
	KConfAck
	// KSnapSeal asks the manager leader to store a node's snapshot of
	// Episode (VT): the KSnapPush frames of Pages over its replica of
	// episode Base (0: none).
	KSnapSeal

	kindEnd
)

var kindNames = [...]string{
	KPageReq: "page-req", KPageReply: "page-reply",
	KDiffReq: "diff-req", KDiffReply: "diff-reply",
	KWriteNotices: "write-notices", KAck: "ack",
	KLockReq: "lock-req", KLockGrant: "lock-grant",
	KBarArrive: "bar-arrive", KBarDepart: "bar-depart",
	KAbort:   "abort",
	KJoinReq: "join-req", KJoinGrant: "join-grant",
	KSnapReq: "snap-req", KSnapPush: "snap-push",
	KResume: "resume", KCkptDone: "ckpt-done",
	KLockForward: "lock-forward", KBarRelease: "bar-release",
	KVoteReq: "vote-req", KVoteResp: "vote-resp",
	KAppend: "append", KAppendAck: "append-ack",
	KNotLeader:  "not-leader",
	KConfChange: "conf-change", KConfAck: "conf-ack",
	KSnapSeal: "snap-seal",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Notice is one interval's write notices: the pages writer's interval
// modified. Receivers invalidate (LI) or refresh (LH) those pages.
type Notice struct {
	Writer int32
	Index  int32
	Pages  []int32
}

// Diff is one page's modifications from one interval, tagged with its
// creator so receivers can track per-writer coverage.
type Diff struct {
	Writer int32
	Index  int32
	D      page.Diff
}

// Interval describes one closed interval: its creator, index, vector
// time, and the pages its write notices cover.
type Interval struct {
	Writer int32
	Index  int32
	VT     []int32
	Pages  []int32
}

// Msg is one live-protocol message. Only the fields relevant to its Kind
// are encoded; see the per-kind field lists in fields.
type Msg struct {
	Kind  Kind
	From  int32 // sending node
	Token int64 // request/reply correlation (the request ID retries reuse)

	// Attempt counts retransmissions of a request (0 on first send,
	// saturating at 255).
	Attempt uint8

	// Epoch is the cluster recovery epoch the sender belonged to when it
	// sent the frame. Every rollback bumps the epoch, so a delayed frame
	// from a node's previous incarnation — whose tokens restart at 1 and
	// would otherwise collide — is fenced off at the receiver.
	Epoch uint32

	// Acks names the KWriteNotices flushes (by token) the sender has
	// applied, on any kind: a home acknowledges a flush on the next frame
	// it sends the writer. Senders attach them with EncodeAcks.
	Acks []int64

	Lock    int32
	Barrier int32
	Episode int64
	Page    int32
	Base    int64  // episode a snapshot seal builds on, 0 for none (KSnapSeal)
	ReqFrom int32  // original requester of a forwarded lock request
	Err     string // abort reason (KAbort)

	// Consensus fields. Term also stamps KAbort so a deposed leader's
	// stale abort is fenced at receivers.
	Term     int64 // sender's current term (consensus kinds, KAbort)
	LogIndex int64 // slot version (KVoteReq/KAppend/KAppendAck)
	LogTerm  int64 // slot term (KVoteReq)
	Flag     uint8 // vote granted (KVoteResp), add (KConfChange), committed (KConfAck)
	Leader   int32 // redirect hint, -1 unknown (KNotLeader)

	VT       []int32 // vector time (requester VT, grant VT, page version)
	Need     []int32 // per-writer version the home must hold before answering (KPageReq/KDiffReq)
	Pages    []int32 // pages whose frames a snapshot seal stores (KSnapSeal)
	Data     []byte  // page image, or a consensus state (KAppend)
	Diffs    []Diff
	Notices  []Notice
	Interval *Interval // closed interval (flushes, barrier arrivals)
}

// fieldSet describes which optional fields a kind encodes, so the codec
// stays table-driven and every kind round-trips through one pair of
// routines. Present fields are encoded in one fixed order, the order
// Encode tests them in.
type fieldSet struct {
	lock, barrier, episode, pg     bool
	base, pages                    bool
	vt, data, diffs, notices, ival bool
	attempt                        bool // retryable request kinds
	errstr                         bool
	reqfrom                        bool
	term, logidx, logterm          bool
	flag, leader                   bool
	need                           bool
}

var fields = map[Kind]fieldSet{
	KPageReq:      {pg: true, attempt: true, need: true},
	KPageReply:    {pg: true, vt: true, data: true},
	KDiffReq:      {pg: true, vt: true, attempt: true, need: true},
	KDiffReply:    {pg: true, vt: true, data: true, diffs: true},
	KWriteNotices: {diffs: true, ival: true, attempt: true, episode: true},
	KAck:          {},
	KLockReq:      {lock: true, vt: true, attempt: true},
	KLockGrant:    {lock: true, vt: true, notices: true, diffs: true},
	KBarArrive:    {barrier: true, vt: true, ival: true, attempt: true, episode: true, notices: true},
	KBarDepart:    {barrier: true, episode: true, vt: true, notices: true},
	KAbort:        {errstr: true, term: true},
	KJoinReq:      {attempt: true},
	KJoinGrant:    {episode: true, vt: true},
	KSnapReq:      {episode: true, pg: true, attempt: true},
	KSnapPush:     {episode: true, pg: true, vt: true, data: true},
	KResume:       {attempt: true},
	KCkptDone:     {episode: true, attempt: true},
	KLockForward:  {lock: true, reqfrom: true, vt: true},
	KBarRelease:   {barrier: true, episode: true, vt: true, notices: true},
	KVoteReq:      {term: true, logidx: true, logterm: true},
	KVoteResp:     {term: true, flag: true},
	KAppend:       {term: true, logidx: true, data: true},
	KAppendAck:    {term: true, logidx: true},
	KNotLeader:    {term: true, leader: true},
	KConfChange:   {flag: true, reqfrom: true, attempt: true},
	KConfAck:      {flag: true, errstr: true},
	KSnapSeal:     {episode: true, base: true, vt: true, pages: true, attempt: true},
}

// Encode serializes m into a fresh buffer.
func Encode(m *Msg) []byte { return EncodeAcks(m, m.Acks) }

// EncodeAcks serializes m with acks in place of m.Acks. A sender attaches
// the acks it owes a peer to whatever frame goes there next without
// writing them into m, which a reply cache may re-send long after they
// were delivered.
func EncodeAcks(m *Msg, acks []int64) []byte {
	fs, ok := fields[m.Kind]
	if !ok {
		panic(fmt.Sprintf("wire: encode of unknown kind %v", m.Kind))
	}
	w := codec.Writer{B: make([]byte, 0, 64+8*len(acks)+len(m.Data))}
	w.U8(Version)
	w.U8(uint8(m.Kind))
	w.I32(m.From)
	w.I64(m.Token)
	w.U32(m.Epoch)
	w.U32(uint32(len(acks)))
	for _, a := range acks {
		w.I64(a)
	}
	if fs.attempt {
		w.U8(m.Attempt)
	}
	if fs.term {
		w.I64(m.Term)
	}
	if fs.logidx {
		w.I64(m.LogIndex)
	}
	if fs.logterm {
		w.I64(m.LogTerm)
	}
	if fs.flag {
		w.U8(m.Flag)
	}
	if fs.leader {
		w.I32(m.Leader)
	}
	if fs.errstr {
		w.Bytes([]byte(m.Err))
	}
	if fs.lock {
		w.I32(m.Lock)
	}
	if fs.reqfrom {
		w.I32(m.ReqFrom)
	}
	if fs.barrier {
		w.I32(m.Barrier)
	}
	if fs.episode {
		w.I64(m.Episode)
	}
	if fs.base {
		w.I64(m.Base)
	}
	if fs.pg {
		w.I32(m.Page)
	}
	if fs.vt {
		w.I32s(m.VT)
	}
	if fs.need {
		w.I32s(m.Need)
	}
	if fs.pages {
		w.I32s(m.Pages)
	}
	if fs.data {
		w.Bytes(m.Data)
	}
	if fs.diffs {
		w.U32(uint32(len(m.Diffs)))
		for i := range m.Diffs {
			writeDiff(&w, &m.Diffs[i])
		}
	}
	if fs.notices {
		w.U32(uint32(len(m.Notices)))
		for i := range m.Notices {
			n := &m.Notices[i]
			w.I32(n.Writer)
			w.I32(n.Index)
			w.I32s(n.Pages)
		}
	}
	if fs.ival {
		w.Bool(m.Interval != nil)
		if m.Interval != nil {
			w.I32(m.Interval.Writer)
			w.I32(m.Interval.Index)
			w.I32s(m.Interval.VT)
			w.I32s(m.Interval.Pages)
		}
	}
	return w.B
}

// Decode parses one frame. It returns an error — never panics — on
// truncated, oversized, or malformed input.
func Decode(b []byte) (*Msg, error) {
	if len(b) > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds MaxFrame", len(b))
	}
	r := codec.NewReader(b, "wire: frame")
	if v := r.U8(); r.Err() == nil && v != Version {
		return nil, fmt.Errorf("wire: version %d frame, want %d", v, Version)
	}
	k := Kind(r.U8())
	fs, ok := fields[k]
	if r.Err() == nil && !ok {
		return nil, fmt.Errorf("wire: unknown kind %d", uint8(k))
	}
	m := &Msg{Kind: k}
	m.From = r.I32()
	m.Token = r.I64()
	m.Epoch = r.U32()
	if n := r.Count(8); n > 0 {
		m.Acks = make([]int64, n)
		for i := range m.Acks {
			m.Acks[i] = r.I64()
		}
	}
	if fs.attempt {
		m.Attempt = r.U8()
	}
	if fs.term {
		m.Term = r.I64()
	}
	if fs.logidx {
		m.LogIndex = r.I64()
	}
	if fs.logterm {
		m.LogTerm = r.I64()
	}
	if fs.flag {
		m.Flag = r.U8()
	}
	if fs.leader {
		m.Leader = r.I32()
	}
	if fs.errstr {
		if e := r.Bytes(); len(e) > 0 {
			m.Err = string(e)
		}
	}
	if fs.lock {
		m.Lock = r.I32()
	}
	if fs.reqfrom {
		m.ReqFrom = r.I32()
	}
	if fs.barrier {
		m.Barrier = r.I32()
	}
	if fs.episode {
		m.Episode = r.I64()
	}
	if fs.base {
		m.Base = r.I64()
	}
	if fs.pg {
		m.Page = r.I32()
	}
	if fs.vt {
		m.VT = r.I32s()
	}
	if fs.need {
		m.Need = r.I32s()
	}
	if fs.pages {
		m.Pages = r.I32s()
	}
	if fs.data {
		m.Data = r.Bytes()
	}
	if fs.diffs {
		n := r.Count(9) // minimum bytes per encoded diff
		for i := 0; i < n && r.Err() == nil; i++ {
			m.Diffs = append(m.Diffs, readDiff(&r))
		}
	}
	if fs.notices {
		n := r.Count(12)
		for i := 0; i < n && r.Err() == nil; i++ {
			var nt Notice
			nt.Writer = r.I32()
			nt.Index = r.I32()
			nt.Pages = r.I32s()
			m.Notices = append(m.Notices, nt)
		}
	}
	if fs.ival {
		if r.Bool() {
			iv := &Interval{}
			iv.Writer = r.I32()
			iv.Index = r.I32()
			iv.VT = r.I32s()
			iv.Pages = r.I32s()
			m.Interval = iv
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

func writeDiff(w *codec.Writer, d *Diff) {
	w.I32(d.Writer)
	w.I32(d.Index)
	w.I32(int32(d.D.Page))
	w.U32(uint32(len(d.D.Runs)))
	for _, r := range d.D.Runs {
		w.I32(r.Off)
		w.U32(uint32(len(r.Words)))
		for _, x := range r.Words {
			w.U64(x)
		}
	}
}

func readDiff(r *codec.Reader) Diff {
	var d Diff
	d.Writer = r.I32()
	d.Index = r.I32()
	d.D.Page = page.ID(r.I32())
	nr := r.Count(8)
	for i := 0; i < nr && r.Err() == nil; i++ {
		var run page.Run
		run.Off = r.I32()
		nw := r.Count(8)
		if r.Err() != nil {
			break
		}
		run.Words = make([]uint64, nw)
		for j := range run.Words {
			run.Words[j] = r.U64()
		}
		d.D.Runs = append(d.D.Runs, run)
	}
	return d
}
