// Package recover holds the barrier-aligned checkpoint layer of the live
// DSM runtime: the snapshot a node captures at flagged barrier
// episodes, a binary codec for it, and the pluggable Store it is
// written to (in-memory for tests and soaks, a directory of files for
// real deployments).
//
// A checkpoint of episode E is nothing but the nodes' snapshots, and it
// is consistent by construction — see DESIGN.md §11: every node captures
// its homed pages right after departing barrier E, holding the episode's
// merged vector time, when every interval of the pre-E phase has been
// applied at its home and no post-E flush has been (the capture gate
// defers them), so the union of the homes' snapshots is exactly the
// LRC-committed state at the barrier cut.
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
	// Prune drops all but the newest keep episodes' snapshots.
	Prune(keep int) error
}

// ---- in-memory store ----

// MemStore is the in-process Store used by tests, soaks and the
// supervisor's default configuration.
type MemStore struct {
	mu    sync.Mutex
	nodes map[int64]map[int]*NodeSnapshot
}

// NewMemStore builds an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{nodes: make(map[int64]map[int]*NodeSnapshot)}
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

// Prune implements Store.
func (st *MemStore) Prune(keep int) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	eps := make([]int64, 0, len(st.nodes))
	for ep := range st.nodes {
		eps = append(eps, ep)
	}
	for _, ep := range dropList(eps, keep) {
		delete(st.nodes, ep)
	}
	return nil
}

// dropList returns the episodes to drop: all but the newest keep.
func dropList(eps []int64, keep int) []int64 {
	sort.Slice(eps, func(i, j int) bool { return eps[i] > eps[j] })
	if len(eps) <= keep {
		return nil
	}
	return eps[keep:]
}
