// Package recover holds the barrier-aligned checkpoint layer of the live
// DSM runtime: the snapshot types a node and the manager capture at
// flagged barrier episodes, a binary codec for them, and the pluggable
// CheckpointStore they are written to (in-memory for tests and soaks, a
// directory of files for real deployments).
//
// A checkpoint of episode E is consistent by construction — see
// DESIGN.md §11: every node captures its homed pages right after
// departing barrier E, when every interval of the pre-E phase has been
// applied at its home and no post-E flush has been (the capture gate
// defers them), so the union of the homes' snapshots plus the manager's
// snapshot is exactly the LRC-committed state at the barrier cut.
//
// Files importing this package alongside the builtin recover() should
// alias it (the import shadows the builtin in that file).
package recover

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrNotFound is returned when a store holds no snapshot for the
// requested episode.
var ErrNotFound = errors.New("recover: snapshot not found")

// PageImage is one checkpointed shared page: its committed contents at
// the barrier cut and the per-writer interval versions applied to it
// (the home's homeVT), from which the restored home rebuilds its
// version accounting. Both slices are read-only once the image is part
// of a stored snapshot (see Store): consecutive snapshots of a node
// share the images of pages that did not change.
type PageImage struct {
	Page   int32
	Data   []byte
	HomeVT []int32
}

// NodeSnapshot is one node's share of a checkpoint: the pages it homes
// and the merged vector time of the barrier episode.
type NodeSnapshot struct {
	Episode int64
	Node    int32
	VT      []int32
	Pages   []PageImage
}

// Bytes returns the snapshot's payload size (page data only), the
// number the CheckpointBytes counter accumulates.
func (s *NodeSnapshot) Bytes() int64 {
	var n int64
	for i := range s.Pages {
		n += int64(len(s.Pages[i].Data))
	}
	return n
}

// LogRec is one interval's write notices in the manager's global log
// (the neutral form of the manager's internal record).
type LogRec struct {
	Pages []int32
}

// ManagerSnapshot is the manager's share of a checkpoint: the barrier
// episode counter, the merged vector time, each lock's release-time
// vector time, and the global interval log up to the cut.
type ManagerSnapshot struct {
	Episode int64
	VT      []int32
	LockVT  [][]int32 // nil entry: lock never released
	Log     [][]LogRec
}

// Store is a checkpoint store. Implementations must be safe for
// concurrent use: the worker goroutines of several nodes write their
// snapshots independently, and the manager's dispatcher reads replicas
// while serving a rejoin.
//
// Ownership: a node snapshot is immutable once put. PutNode keeps the
// snapshot it is handed — the caller gives up writing to it and to every
// buffer it references — and GetNode may return the stored snapshot
// itself, which its callers only read. That is what lets one PageImage
// be shared by consecutive snapshots, a decoded snapshot alias the buffer
// it was decoded from, and the in-memory store hold a snapshot without
// copying it. Putting the same snapshot again is legal.
type Store interface {
	// PutNode stores (or overwrites) a node snapshot, taking ownership.
	PutNode(s *NodeSnapshot) error
	// GetNode returns the snapshot of (episode, node), read-only, or
	// ErrNotFound.
	GetNode(episode int64, node int) (*NodeSnapshot, error)
	// LatestNode returns the newest episode stored for node, or false.
	LatestNode(node int) (int64, bool)
	// PutManager stores (or overwrites) a manager snapshot.
	PutManager(s *ManagerSnapshot) error
	// GetManager returns the manager snapshot of episode, or ErrNotFound.
	GetManager(episode int64) (*ManagerSnapshot, error)
	// Prune drops all but the newest keep episodes' snapshots.
	Prune(keep int) error
}

// ---- in-memory store ----

// MemStore is the in-process Store used by tests, soaks and the
// supervisor's default configuration.
type MemStore struct {
	mu    sync.Mutex
	nodes map[int64]map[int]*NodeSnapshot
	mgrs  map[int64]*ManagerSnapshot
}

// NewMemStore builds an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{
		nodes: make(map[int64]map[int]*NodeSnapshot),
		mgrs:  make(map[int64]*ManagerSnapshot),
	}
}

// PutNode implements Store: the store holds s itself.
func (st *MemStore) PutNode(s *NodeSnapshot) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	m := st.nodes[s.Episode]
	if m == nil {
		m = make(map[int]*NodeSnapshot)
		st.nodes[s.Episode] = m
	}
	m[int(s.Node)] = s
	return nil
}

// GetNode implements Store.
func (st *MemStore) GetNode(episode int64, node int) (*NodeSnapshot, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.nodes[episode][node]
	if s == nil {
		return nil, fmt.Errorf("%w: episode %d node %d", ErrNotFound, episode, node)
	}
	return s, nil
}

// LatestNode implements Store.
func (st *MemStore) LatestNode(node int) (int64, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	best, ok := int64(0), false
	for ep, m := range st.nodes {
		if m[node] != nil && (!ok || ep > best) {
			best, ok = ep, true
		}
	}
	return best, ok
}

// PutManager implements Store.
func (st *MemStore) PutManager(s *ManagerSnapshot) error {
	cp := cloneManager(s)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.mgrs[s.Episode] = cp
	return nil
}

// GetManager implements Store.
func (st *MemStore) GetManager(episode int64) (*ManagerSnapshot, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.mgrs[episode]
	if s == nil {
		return nil, fmt.Errorf("%w: episode %d manager", ErrNotFound, episode)
	}
	return cloneManager(s), nil
}

// Prune implements Store.
func (st *MemStore) Prune(keep int) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	eps := make(map[int64]bool)
	for ep := range st.nodes {
		eps[ep] = true
	}
	for ep := range st.mgrs {
		eps[ep] = true
	}
	for _, ep := range pruneList(eps, keep) {
		delete(st.nodes, ep)
		delete(st.mgrs, ep)
	}
	return nil
}

// pruneList returns the episodes to drop: all but the newest keep.
func pruneList(eps map[int64]bool, keep int) []int64 {
	all := make([]int64, 0, len(eps))
	for ep := range eps {
		all = append(all, ep)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] > all[j] })
	if len(all) <= keep {
		return nil
	}
	return all[keep:]
}

func cloneManager(s *ManagerSnapshot) *ManagerSnapshot {
	cp := &ManagerSnapshot{Episode: s.Episode, VT: cloneI32(s.VT)}
	cp.LockVT = make([][]int32, len(s.LockVT))
	for i, vt := range s.LockVT {
		cp.LockVT[i] = cloneI32(vt)
	}
	cp.Log = make([][]LogRec, len(s.Log))
	for w, recs := range s.Log {
		cp.Log[w] = make([]LogRec, len(recs))
		for i, r := range recs {
			cp.Log[w][i] = LogRec{Pages: cloneI32(r.Pages)}
		}
	}
	return cp
}

func cloneI32(v []int32) []int32 {
	if v == nil {
		return nil
	}
	return append([]int32(nil), v...)
}
