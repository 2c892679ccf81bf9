package node

import (
	"fmt"
	"sync"

	"lrcdsm/internal/live/codec"
)

// mstate is the manager's replicated state machine. It holds only what
// a recovery reads: which checkpoint episode each node confirmed, who is
// mid-recovery, and the checkpoint the cluster last rolled back to. A
// checkpoint itself is nothing but the nodes' snapshots (see
// internal/live/recover), so none of it lives here. Mutations happen
// through apply, on the consensus leader, or restoreState, on a follower
// installing the leader's image; every replica that applies the same
// command sequence holds byte-identical state (see encodeState).
// Leader-local serving state — request dedup, snapshot page pushes,
// joiners' replicas — deliberately lives outside, in the manager: it
// never needs to agree across replicas because every command is
// idempotent and clients retry with fresh tokens.
type mstate struct {
	mu sync.Mutex
	nn int

	// ckptConfirmed[w] is the newest checkpoint episode w confirmed
	// durably stored; the stable checkpoint is their minimum.
	ckptConfirmed []int64
	// recovering[w] marks a peer mid-recovery: liveness skips it and a
	// KJoinReq from it is expected.
	recovering []bool
	// resumeEpisode is the checkpoint the cluster last rolled back to,
	// handed to joiners in KJoinGrant.
	resumeEpisode int64
}

func newMstate(nn int) *mstate {
	return &mstate{
		nn:            nn,
		ckptConfirmed: make([]int64, nn),
		recovering:    make([]bool, nn),
	}
}

// Command opcodes. A nil/empty command is a noop (a new consensus
// leader's first version, and read barriers). Opcodes 2 and 3 are retired
// (a flagged episode's merged vector time, a join's incarnation): they
// decode as unknown.
const (
	opCkptDone byte = 1 // node confirmed checkpoint episode
	opResume   byte = 4 // node finished its rejoin
	opReset    byte = 5 // cluster rolled back to an episode
)

// mcmd is one decoded manager command.
type mcmd struct {
	op      byte
	node    int32
	episode int64
}

// encode serializes c: its opcode, then the fields that opcode carries.
// decodeCmd is its strict inverse.
func (c mcmd) encode() []byte {
	w := codec.Writer{B: make([]byte, 0, 13)}
	w.U8(c.op)
	w.I32(c.node)
	if c.op != opResume {
		w.I64(c.episode)
	}
	return w.B
}

func encodeCkptDone(node int32, episode int64) []byte {
	return mcmd{op: opCkptDone, node: node, episode: episode}.encode()
}

func encodeResume(node int32) []byte { return mcmd{op: opResume, node: node}.encode() }

func encodeReset(victim int32, episode int64) []byte {
	return mcmd{op: opReset, node: victim, episode: episode}.encode()
}

func decodeCmd(b []byte) (mcmd, error) {
	var c mcmd
	if len(b) == 0 {
		return c, nil // noop
	}
	c.op = b[0]
	r := codec.NewReader(b[1:], "manager: command")
	switch c.op {
	case opCkptDone, opReset:
		c.node = r.I32()
		c.episode = r.I64()
	case opResume:
		c.node = r.I32()
	default:
		return c, fmt.Errorf("manager: unknown command op %d", c.op)
	}
	return c, r.Done()
}

// apply mutates the state with one decoded command. Every command is
// idempotent — re-applying after a leader change or a duplicated
// proposal converges on the same state — and deterministic, so replicas
// applying the same commands agree byte-for-byte.
func (s *mstate) apply(c mcmd) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch c.op {
	case 0: // noop
	case opCkptDone:
		if w := int(c.node); w >= 0 && w < s.nn && c.episode > s.ckptConfirmed[w] {
			s.ckptConfirmed[w] = c.episode
		}
	case opResume:
		if w := int(c.node); w >= 0 && w < s.nn {
			s.recovering[w] = false
		}
	case opReset:
		k := c.episode
		s.resumeEpisode = k
		for w := range s.recovering {
			s.recovering[w] = false
		}
		if v := int(c.node); v >= 0 && v < s.nn {
			s.recovering[v] = true
		}
		// Confirmations past the rollback point refer to episodes the
		// re-execution will reach (and re-store) again; clamping keeps
		// the stable computation conservative.
		for w := range s.ckptConfirmed {
			if s.ckptConfirmed[w] > k {
				s.ckptConfirmed[w] = k
			}
		}
	default:
		return fmt.Errorf("manager: unknown command op %d", c.op)
	}
	return nil
}

// stable is the newest episode every node has confirmed; the rollback
// target a recovery restores (0 = the initial image).
func (s *mstate) stable() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	stable := s.ckptConfirmed[0]
	for _, e := range s.ckptConfirmed[1:] {
		if e < stable {
			stable = e
		}
	}
	return stable
}

// resumePoint returns the checkpoint the cluster last rolled back to.
func (s *mstate) resumePoint() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resumeEpisode
}

func (s *mstate) isRecovering(w int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovering[w]
}

// encodeState serializes the full state deterministically, so replicas
// can be compared byte-for-byte after applying the same commands.
func (s *mstate) encodeState() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	var w codec.Writer
	w.U32(uint32(s.nn))
	for _, e := range s.ckptConfirmed {
		w.I64(e)
	}
	for _, r := range s.recovering {
		w.Bool(r)
	}
	w.I64(s.resumeEpisode)
	return w.B
}

// restoreState replaces the state with a decoded encodeState image — a
// follower installing the consensus leader's state. The image's cluster
// size must match; any truncation or trailing bytes is an error and
// leaves the state untouched.
func (s *mstate) restoreState(b []byte) error {
	r := codec.NewReader(b, "manager: state image")
	if nn := r.U32(); r.Err() == nil && int(nn) != s.nn {
		return fmt.Errorf("manager: state image is for %d nodes, cluster has %d", nn, s.nn)
	}
	confirmed := make([]int64, s.nn)
	for w := range confirmed {
		confirmed[w] = r.I64()
	}
	rec := make([]bool, s.nn)
	for w := range rec {
		rec[w] = r.Bool()
	}
	re := r.I64()
	if err := r.Done(); err != nil {
		return err
	}
	s.mu.Lock()
	s.ckptConfirmed = confirmed
	s.recovering = rec
	s.resumeEpisode = re
	s.mu.Unlock()
	return nil
}
