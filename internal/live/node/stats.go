package node

import (
	"sync/atomic"

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
	// probable owner, grants handed out (first grants and owner-to-owner
	// handoffs), and interval-log segments fetched from a writer because
	// a grant's notices had a pruned gap.
	LockLocalAcquires int64 `json:"lock_local_acquires"`
	LockForwards      int64 `json:"lock_forwards"`
	LockHandoffs      int64 `json:"lock_handoffs"`
	LogSegFetches     int64 `json:"log_seg_fetches"`
	// Polls parked in Node.Backoff, and those the backstop ended instead
	// of a frame (a healthy run has next to none).
	BackoffParks    int64 `json:"backoff_parks"`
	BackoffTimeouts int64 `json:"backoff_timeouts"`

	// Robustness counters: the retransmission and failure-detection
	// machinery's activity. All zero on a healthy network.
	RPCRetries     int64 `json:"rpc_retries"`     // requests retransmitted after a silent backoff window (flush flights included)
	DupRequests    int64 `json:"dup_requests"`    // retransmitted requests de-duplicated at this node
	DupReplies     int64 `json:"dup_replies"`     // late/duplicate replies dropped (token already resolved)
	HeartbeatsSent int64 `json:"heartbeats_sent"` // liveness beacons sent to the manager
	HeartbeatsRecv int64 `json:"heartbeats_recv"` // beacons received (manager only)
	// FlushRetransmits is the share of RPCRetries spent on flush flights:
	// KWriteNotices messages the retry timer resent for want of an ack.
	FlushRetransmits int64 `json:"flush_retransmits"`
	// AcksCarried counts flush acks this node, as a home, sent on a frame
	// it was sending the writer anyway instead of on a standalone ack.
	AcksCarried int64 `json:"acks_carried"`

	// Recovery counters: the checkpoint/rejoin machinery's activity. All
	// zero unless recovery is configured.
	CheckpointsTaken int64 `json:"checkpoints_taken"` // barrier-aligned snapshots captured
	CheckpointBytes  int64 `json:"checkpoint_bytes"`  // serialized snapshot bytes stored
	StaleFrames      int64 `json:"stale_frames"`      // frames fenced for carrying an old recovery epoch

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
	// Elections the elections it stood for, Commits the log entries it
	// applied, and LeaderRedirects the not-leader redirects its manager
	// RPCs followed. All zero unless recovery is enabled.
	ConsensusTerms     int64 `json:"consensus_terms"`
	ConsensusElections int64 `json:"consensus_elections"`
	ConsensusCommits   int64 `json:"consensus_commits"`
	LeaderRedirects    int64 `json:"leader_redirects"`

	// Long-haul control-plane counters. Compactions counts log prefixes
	// this replica folded into snapshots; SnapInstalls snapshots it
	// installed from a leader (catching up past compacted entries);
	// ConfChanges committed voting-membership changes it applied;
	// SlotQuarantines corrupt durable slots quarantined at load;
	// LaneDrops outbound consensus frames discarded on a full peer lane;
	// MgrCacheEvictions snapshot-chunk cache entries the manager evicted
	// under its LRU bound.
	ConsensusCompactions     int64 `json:"consensus_compactions"`
	ConsensusSnapInstalls    int64 `json:"consensus_snap_installs"`
	ConsensusConfChanges     int64 `json:"consensus_conf_changes"`
	ConsensusSlotQuarantines int64 `json:"consensus_slot_quarantines"`
	ConsensusLaneDrops       int64 `json:"consensus_lane_drops"`
	MgrCacheEvictions        int64 `json:"mgr_cache_evictions"`
}

func (s *Stats) add(f *int64, d int64) { atomic.AddInt64(f, d) }

// Snapshot returns a plain copy of the (atomically updated) counters.
func (s *Stats) Snapshot() Stats {
	var out Stats
	out.Node = s.Node
	for _, c := range []struct{ dst, src *int64 }{
		{&out.MsgsSent, &s.MsgsSent}, {&out.MsgsRecv, &s.MsgsRecv},
		{&out.BytesSent, &s.BytesSent}, {&out.BytesRecv, &s.BytesRecv},
		{&out.DataBytes, &s.DataBytes},
		{&out.SharedReads, &s.SharedReads}, {&out.SharedWrites, &s.SharedWrites},
		{&out.PageFaults, &s.PageFaults}, {&out.PageFetches, &s.PageFetches},
		{&out.DiffPulls, &s.DiffPulls}, {&out.GrantDiffs, &s.GrantDiffs},
		{&out.TwinsCreated, &s.TwinsCreated}, {&out.DiffsCreated, &s.DiffsCreated},
		{&out.DiffsApplied, &s.DiffsApplied}, {&out.DiffBytes, &s.DiffBytes},
		{&out.Intervals, &s.Intervals}, {&out.Invalidations, &s.Invalidations},
		{&out.LockAcquires, &s.LockAcquires}, {&out.BarrierEpisodes, &s.BarrierEpisodes},
		{&out.LockLocalAcquires, &s.LockLocalAcquires}, {&out.LockForwards, &s.LockForwards},
		{&out.LockHandoffs, &s.LockHandoffs}, {&out.LogSegFetches, &s.LogSegFetches},
		{&out.BackoffParks, &s.BackoffParks}, {&out.BackoffTimeouts, &s.BackoffTimeouts},
		{&out.RPCRetries, &s.RPCRetries}, {&out.DupRequests, &s.DupRequests},
		{&out.DupReplies, &s.DupReplies},
		{&out.HeartbeatsSent, &s.HeartbeatsSent}, {&out.HeartbeatsRecv, &s.HeartbeatsRecv},
		{&out.FlushRetransmits, &s.FlushRetransmits}, {&out.AcksCarried, &s.AcksCarried},
		{&out.CheckpointsTaken, &s.CheckpointsTaken}, {&out.CheckpointBytes, &s.CheckpointBytes},
		{&out.StaleFrames, &s.StaleFrames},
		{&out.LockWaitNs, &s.LockWaitNs}, {&out.BarrierWaitNs, &s.BarrierWaitNs},
		{&out.FaultWaitNs, &s.FaultWaitNs}, {&out.FlushWaitNs, &s.FlushWaitNs},
		{&out.HomeWaitNs, &s.HomeWaitNs}, {&out.ParkedReqs, &s.ParkedReqs},
		{&out.ServeGets, &s.ServeGets}, {&out.ServePuts, &s.ServePuts}, {&out.ServeInline, &s.ServeInline},
		{&out.ConsensusTerms, &s.ConsensusTerms}, {&out.ConsensusElections, &s.ConsensusElections},
		{&out.ConsensusCommits, &s.ConsensusCommits}, {&out.LeaderRedirects, &s.LeaderRedirects},
		{&out.ConsensusCompactions, &s.ConsensusCompactions}, {&out.ConsensusSnapInstalls, &s.ConsensusSnapInstalls},
		{&out.ConsensusConfChanges, &s.ConsensusConfChanges}, {&out.ConsensusSlotQuarantines, &s.ConsensusSlotQuarantines},
		{&out.ConsensusLaneDrops, &s.ConsensusLaneDrops}, {&out.MgrCacheEvictions, &s.MgrCacheEvictions},
	} {
		*c.dst = atomic.LoadInt64(c.src)
	}
	return out
}

// Observer receives protocol-level events from a live run, mirroring the
// simulator's core.Observer where the concepts coincide. Callbacks fire
// concurrently from node goroutines; implementations must be
// thread-safe and must not call back into the node.
type Observer interface {
	// MsgSent fires for every frame handed to the transport.
	MsgSent(from, to int, kind wire.Kind, bytes int)
	// PageFault fires when an access faults on an invalid page.
	PageFault(node int, pg page.ID)
	// IntervalClosed fires when a node closes a write interval.
	IntervalClosed(node int, idx int32, pages []page.ID)
	// DiffApplied fires when a node incorporates writer's interval idx
	// into its copy of pg (home application or hybrid pull).
	DiffApplied(node int, pg page.ID, writer int, idx int32)
	// Invalidated fires when a write notice invalidates a local copy.
	Invalidated(node int, pg page.ID)
	// BarrierDeparted fires when a node leaves a barrier episode.
	BarrierDeparted(node int, episode int64)
}
