package node

// SuccQueued reports whether a forwarded acquire is queued at this node
// for lock id's next release.
func (n *Node) SuccQueued(id int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sy.locks[id].succ != nil
}

// JoinReplica reports whether this node's manager holds a replica for
// node w to pull while it rejoins.
func (n *Node) JoinReplica(w int) bool {
	g := n.mgr
	g.cmu.Lock()
	defer g.cmu.Unlock()
	return g.slot(w).join != nil
}
