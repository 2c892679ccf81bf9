package node

import (
	"fmt"
	"time"
)

// PeerDownError is the manager's structured verdict when failure
// detection declares a peer dead: the cluster aborts with this error
// instead of letting every blocked worker ride out its RPC timeout. It
// names the suspect node, how long it has been silent, and the
// synchronization state the manager believes it holds or owes.
type PeerDownError struct {
	// Node is the suspect node's id.
	Node int
	// Silence is how long the manager has heard nothing from it.
	Silence time.Duration
	// Pending describes the suspect's synchronization state as the
	// manager sees it (held locks, missing barrier arrivals), or
	// "no pending synchronization" when it owes nothing.
	Pending string
}

func (e *PeerDownError) Error() string {
	return fmt.Sprintf("manager: node %d presumed down (silent %v; %s)",
		e.Node, e.Silence.Round(time.Millisecond), e.Pending)
}

// RemoteAbortError wraps an abort broadcast received from another node,
// preserving which node initiated the shutdown and why.
type RemoteAbortError struct {
	// From is the node that broadcast the abort.
	From int
	// Reason is the initiating node's error text.
	Reason string
}

func (e *RemoteAbortError) Error() string {
	return fmt.Sprintf("aborted by node %d: %s", e.From, e.Reason)
}
