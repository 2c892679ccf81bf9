package node

import (
	"reflect"
	"sync/atomic"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/wire"
	"lrcdsm/internal/page"
)

// Stats counts one live node's protocol activity. The counters mirror the
// simulator's core.RunStats where a live equivalent exists (see the
// mapping table in DESIGN.md §9), so live runs and simulated runs report
// comparable numbers; wait times are real wall-clock nanoseconds instead
// of simulated cycles. All fields are updated with atomics — a node's
// worker, dispatcher and frame handler touch them concurrently — with one
// indirection: the own worker counts its lock-free SharedReads and
// SharedWrites privately and adds them in whenever it enters the engine
// (Node.foldHits), so a snapshot taken mid-run can trail by the hits
// since the worker's last miss or synchronization; totals after the
// worker has returned or unwound are exact.
type Stats struct {
	Node int `json:"node"`

	// Message counters (frames moved through the transport).
	MsgsSent  int64 `json:"msgs_sent"`
	MsgsRecv  int64 `json:"msgs_recv"`
	BytesSent int64 `json:"bytes_sent"`
	BytesRecv int64 `json:"bytes_recv"`

	// Shared-data movement: page images and diff payloads (the live
	// analogue of core.RunStats.DataBytes).
	DataBytes int64 `json:"data_bytes"`

	SharedReads  int64 `json:"shared_reads"`
	SharedWrites int64 `json:"shared_writes"`

	// Access faults and their resolution.
	PageFaults  int64 `json:"page_faults"`  // core: AccessMisses
	PageFetches int64 `json:"page_fetches"` // full-page copies installed
	DiffPulls   int64 `json:"diff_pulls"`   // LH update pulls issued
	// GrantDiffs counts LH pages made current from the diffs a lock grant
	// carried instead of by a pull (DiffPulls + GrantDiffs is what the
	// pulls alone would have been).
	GrantDiffs int64 `json:"grant_diffs"`

	TwinsCreated int64 `json:"twins_created"`
	DiffsCreated int64 `json:"diffs_created"`
	DiffsApplied int64 `json:"diffs_applied"`
	DiffBytes    int64 `json:"diff_bytes"` // payload bytes of created diffs

	Intervals     int64 `json:"intervals"` // closed write intervals
	Invalidations int64 `json:"invalidations"`

	LockAcquires    int64 `json:"lock_acquires"`
	BarrierEpisodes int64 `json:"barrier_episodes"`

	// Distributed-lock plane counters: acquires served entirely locally
	// (this node still owned the lock), requests a home forwarded to the
	// probable owner, and grants handed out (first grants and
	// owner-to-owner handoffs).
	LockLocalAcquires int64 `json:"lock_local_acquires"`
	LockForwards      int64 `json:"lock_forwards"`
	LockHandoffs      int64 `json:"lock_handoffs"`
	// InlineRequests counts the lock requests, forwards and flushes this
	// node handled in place on an in-process sender's goroutine instead
	// of its dispatcher's (always zero over TCP).
	InlineRequests int64 `json:"inline_requests"`
	// Polls parked in Node.Backoff, and those the backstop ended instead
	// of a frame (a healthy run has next to none).
	BackoffParks    int64 `json:"backoff_parks"`
	BackoffTimeouts int64 `json:"backoff_timeouts"`

	// Robustness counters: the retransmission and failure-detection
	// machinery's activity. All zero on a healthy network.
	RPCRetries  int64 `json:"rpc_retries"`  // requests retransmitted after a silent backoff window (flush flights included)
	DupRequests int64 `json:"dup_requests"` // retransmitted requests de-duplicated at this node
	DupReplies  int64 `json:"dup_replies"`  // late/duplicate replies dropped (token already resolved)
	// FlushRetransmits is the share of RPCRetries spent on flush flights:
	// KWriteNotices messages the retry timer resent for want of an ack.
	FlushRetransmits int64 `json:"flush_retransmits"`
	// AcksCarried counts flush acks this node, as a home, sent on a frame
	// it was sending the writer anyway instead of on a standalone ack.
	AcksCarried int64 `json:"acks_carried"`

	// Recovery counters: the checkpoint/rejoin machinery's activity. All
	// zero on a fault-free run without a restart budget.
	CheckpointsTaken int64 `json:"checkpoints_taken"` // barrier-aligned snapshots captured
	// CheckpointBytes is the page payload of every snapshot captured,
	// images shared with the previous one included (pushed: BytesSent).
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	StaleFrames     int64 `json:"stale_frames"` // frames fenced for carrying an old recovery epoch

	// Wall-clock waits, in nanoseconds (the live analogue of the
	// simulator's *WaitCycles).
	LockWaitNs    int64 `json:"lock_wait_ns"`
	BarrierWaitNs int64 `json:"barrier_wait_ns"`
	FaultWaitNs   int64 `json:"fault_wait_ns"`
	// FlushWaitNs is the time workers spent draining flush flights at
	// barrier arrivals and FinalFlush — the only places a release waits
	// for the homes. A lock release contributes to it only when the flow
	// control bound on unacknowledged flushes holds it back.
	FlushWaitNs int64 `json:"flush_wait_ns"`
	// HomeWaitNs is the time workers spent, at an access to a page homed
	// on their own node, waiting for a flush they had been told about to
	// land on it.
	HomeWaitNs int64 `json:"home_wait_ns"`

	// ParkedReqs counts the page and diff requests this node, as a home,
	// held back because its copy was older than the version the requester
	// had been told about (each answered when the flush arrived).
	ParkedReqs int64 `json:"parked_reqs"`

	// Serving-path counters (internal/serve): get/put operations executed
	// on this node (the time its executors waited on shard locks is in
	// LockWaitNs with every other acquire), and the share of them their
	// caller ran itself on an idle executor's lane instead of queueing.
	// Zero outside serving runs.
	ServeGets   int64 `json:"serve_gets"`
	ServePuts   int64 `json:"serve_puts"`
	ServeInline int64 `json:"serve_inline"`

	// Consensus-health counters: the replicated control plane's activity
	// on this node. Terms counts term advances this replica observed,
	// Elections the elections it stood for, Commits the versions it
	// committed as leader, and LeaderRedirects the not-leader redirects its manager
	// RPCs followed. All zero on a fault-free run without a restart
	// budget: the bootstrap term holds and nothing is proposed.
	ConsensusTerms     int64 `json:"consensus_terms"`
	ConsensusElections int64 `json:"consensus_elections"`
	ConsensusCommits   int64 `json:"consensus_commits"`
	LeaderRedirects    int64 `json:"leader_redirects"`

	// Long-haul control-plane counters. ConfChanges counts the
	// voting-membership changes this replica proposed as leader;
	// SlotQuarantines corrupt durable slots quarantined at load;
	// LaneDrops outbound consensus frames discarded on a full peer lane.
	ConsensusConfChanges     int64 `json:"consensus_conf_changes"`
	ConsensusSlotQuarantines int64 `json:"consensus_slot_quarantines"`
	ConsensusLaneDrops       int64 `json:"consensus_lane_drops"`
}

// counters returns a pointer to each of s's counters — every field but
// Node — in field order. Snapshot and Add both walk it, so a counter
// added to Stats is copied and summed with no list to extend.
func (s *Stats) counters() []*int64 {
	v := reflect.ValueOf(s).Elem()
	out := make([]*int64, v.NumField()-1)
	for i := range out {
		out[i] = v.Field(i + 1).Addr().Interface().(*int64)
	}
	return out
}

// Snapshot returns a plain copy of the (atomically updated) counters.
func (s *Stats) Snapshot() Stats {
	out := Stats{Node: s.Node}
	dst := out.counters()
	for i, f := range s.counters() {
		*dst[i] = atomic.LoadInt64(f)
	}
	return out
}

// Add accumulates src's counters into s; Node is an identity, not a
// counter, and is left alone. Neither side may be updated concurrently.
func (s *Stats) Add(src *Stats) {
	dst := s.counters()
	for i, f := range src.counters() {
		*dst[i] += *f
	}
}

// LiveObserver is a core.Observer that also takes the events only the
// live engine has. A Config.Observer that implements it receives them.
// Callbacks fire concurrently from node goroutines; implementations
// must be thread-safe and must not call back into the node.
type LiveObserver interface {
	core.Observer
	// MsgSent fires for every frame handed to the transport.
	MsgSent(from, to int, kind wire.Kind, bytes int)
	// PageFault fires when an access faults on a page homed elsewhere.
	PageFault(node int, pg page.ID)
}
