package node

// SuccQueued reports whether a forwarded acquire is queued at this node
// for lock id's next release.
func (n *Node) SuccQueued(id int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sy.locks[id].succ != nil
}
