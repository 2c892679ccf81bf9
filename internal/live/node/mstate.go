package node

import (
	"fmt"
	"sort"
	"sync"

	"lrcdsm/internal/live/codec"
	"lrcdsm/internal/vc"
)

// mstate is the manager's replicated state machine: every
// membership-flavored fact the recovery protocol depends on — which
// checkpoint episodes each node confirmed, the incarnation each node
// announced, who is mid-recovery, the resume point the cluster last
// rolled back to, and the merged vector time of every recent flagged
// barrier episode. Mutations happen only through apply, driven by
// commands committed on the consensus log, so every replica that
// applies the same command sequence holds byte-identical state (see
// encodeState). Leader-local
// serving state — request dedup, snapshot chunk assembly, join blobs —
// deliberately lives outside, in the manager: it never needs to agree
// across replicas because every command is idempotent and clients retry
// with fresh tokens.
type mstate struct {
	mu sync.Mutex
	nn int

	// ckptConfirmed[w] is the newest checkpoint episode w confirmed
	// durably stored; the stable checkpoint is their minimum.
	ckptConfirmed []int64
	// incarnations[w] is the newest incarnation w announced in a join.
	incarnations []uint32
	// recovering[w] marks a peer mid-recovery: liveness skips it and a
	// KJoinReq from it is expected.
	recovering []bool
	// resumeEpisode/resumeVT describe the checkpoint the cluster last
	// rolled back to, handed to joiners in KJoinGrant.
	resumeEpisode int64
	resumeVT      vc.VC
	// mgrVTs[e] is the merged vector time of flagged barrier episode e —
	// the manager's half of checkpoint e, committed before any release
	// of that episode escapes the root. Pruned to the newest
	// keepCheckpoints episodes, mirroring the per-node stores.
	mgrVTs map[int64][]int32
}

func newMstate(nn int) *mstate {
	return &mstate{
		nn:            nn,
		ckptConfirmed: make([]int64, nn),
		incarnations:  make([]uint32, nn),
		recovering:    make([]bool, nn),
		mgrVTs:        map[int64][]int32{},
	}
}

// Command opcodes. A nil/empty command is a noop (the consensus layer's
// leader-change entries and read barriers).
const (
	opCkptDone byte = 1 + iota // node confirmed checkpoint episode
	opMgrSnap                  // merged VT of a flagged episode
	opJoin                     // node announced an incarnation
	opResume                   // node finished its rejoin
	opReset                    // cluster rolled back to an episode
)

// mcmd is one decoded manager command.
type mcmd struct {
	op      byte
	node    int32
	episode int64
	inc     uint32
	vt      []int32
}

// encode serializes c: its opcode, then the fields that opcode carries.
// decodeCmd is its strict inverse.
func (c mcmd) encode() []byte {
	w := codec.Writer{B: make([]byte, 0, 13+4*len(c.vt))}
	w.U8(c.op)
	switch c.op {
	case opCkptDone, opReset:
		w.I32(c.node)
		w.I64(c.episode)
	case opMgrSnap:
		w.I64(c.episode)
		w.I32s(c.vt)
	case opJoin:
		w.I32(c.node)
		w.U32(c.inc)
	case opResume:
		w.I32(c.node)
	}
	return w.B
}

func encodeCkptDone(node int32, episode int64) []byte {
	return mcmd{op: opCkptDone, node: node, episode: episode}.encode()
}

func encodeMgrSnap(episode int64, vt []int32) []byte {
	return mcmd{op: opMgrSnap, episode: episode, vt: vt}.encode()
}

func encodeJoin(node int32, inc uint32) []byte {
	return mcmd{op: opJoin, node: node, inc: inc}.encode()
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
	case opMgrSnap:
		c.episode = r.I64()
		c.vt = r.I32s()
	case opJoin:
		c.node = r.I32()
		c.inc = r.U32()
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
// applying the same log agree byte-for-byte.
func (s *mstate) apply(c mcmd) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch c.op {
	case 0: // noop
	case opCkptDone:
		if w := int(c.node); w >= 0 && w < s.nn && c.episode > s.ckptConfirmed[w] {
			s.ckptConfirmed[w] = c.episode
		}
	case opMgrSnap:
		s.mgrVTs[c.episode] = append([]int32(nil), c.vt...)
		if len(s.mgrVTs) > keepCheckpoints {
			eps := make([]int64, 0, len(s.mgrVTs))
			for e := range s.mgrVTs {
				eps = append(eps, e)
			}
			sort.Slice(eps, func(i, j int) bool { return eps[i] < eps[j] })
			for _, e := range eps[:len(eps)-keepCheckpoints] {
				delete(s.mgrVTs, e)
			}
		}
	case opJoin:
		if w := int(c.node); w >= 0 && w < s.nn {
			s.incarnations[w] = c.inc
		}
	case opResume:
		if w := int(c.node); w >= 0 && w < s.nn {
			s.recovering[w] = false
		}
	case opReset:
		k := c.episode
		s.resumeEpisode = k
		s.resumeVT = nil
		if k > 0 {
			vt, ok := s.mgrVTs[k]
			if !ok {
				return fmt.Errorf("manager: reset to episode %d without its committed snapshot", k)
			}
			s.resumeVT = vc.VC(vt).Clone()
		}
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

// resumePoint returns the checkpoint the cluster last rolled back to
// and a copy of its merged vector time (nil at episode 0).
func (s *mstate) resumePoint() (int64, []int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.resumeVT == nil {
		return s.resumeEpisode, nil
	}
	return s.resumeEpisode, s.resumeVT.Clone()
}

func (s *mstate) isRecovering(w int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovering[w]
}

// mgrVT returns the committed merged vector time of flagged episode e.
func (s *mstate) mgrVT(e int64) ([]int32, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	vt, ok := s.mgrVTs[e]
	if !ok {
		return nil, false
	}
	return append([]int32(nil), vt...), true
}

// encodeState serializes the full state deterministically (map keys
// sorted), so replicas can be compared byte-for-byte after applying the
// same command log.
func (s *mstate) encodeState() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	var w codec.Writer
	w.U32(uint32(s.nn))
	for _, e := range s.ckptConfirmed {
		w.I64(e)
	}
	for _, i := range s.incarnations {
		w.U32(i)
	}
	for _, r := range s.recovering {
		w.Bool(r)
	}
	w.I64(s.resumeEpisode)
	w.I32s(s.resumeVT)
	eps := make([]int64, 0, len(s.mgrVTs))
	for e := range s.mgrVTs {
		eps = append(eps, e)
	}
	sort.Slice(eps, func(i, j int) bool { return eps[i] < eps[j] })
	w.U32(uint32(len(eps)))
	for _, e := range eps {
		w.I64(e)
		w.I32s(s.mgrVTs[e])
	}
	return w.B
}

// restoreState replaces the state with a decoded encodeState image — a
// consensus snapshot install bringing a far-behind or re-seeded replica
// up without replaying the compacted log. The image's cluster size must
// match; any truncation or trailing bytes is an error and leaves the
// state untouched.
func (s *mstate) restoreState(b []byte) error {
	r := codec.NewReader(b, "manager: state image")
	if nn := r.U32(); r.Err() == nil && int(nn) != s.nn {
		return fmt.Errorf("manager: state image is for %d nodes, cluster has %d", nn, s.nn)
	}
	confirmed := make([]int64, s.nn)
	for w := range confirmed {
		confirmed[w] = r.I64()
	}
	incs := make([]uint32, s.nn)
	for w := range incs {
		incs[w] = r.U32()
	}
	rec := make([]bool, s.nn)
	for w := range rec {
		rec[w] = r.Bool()
	}
	re := r.I64()
	rvt := vc.VC(r.I32s())
	vts := map[int64][]int32{}
	n := r.Count(12) // minimum bytes per episode (episode + length)
	for i := 0; i < n && r.Err() == nil; i++ {
		e := r.I64()
		vts[e] = r.I32s()
	}
	if err := r.Done(); err != nil {
		return err
	}
	s.mu.Lock()
	s.ckptConfirmed = confirmed
	s.incarnations = incs
	s.recovering = rec
	s.resumeEpisode = re
	s.resumeVT = rvt
	s.mgrVTs = vts
	s.mu.Unlock()
	return nil
}
