package node

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

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

func encodeCkptDone(node int32, episode int64) []byte {
	b := make([]byte, 13)
	b[0] = opCkptDone
	binary.LittleEndian.PutUint32(b[1:], uint32(node))
	binary.LittleEndian.PutUint64(b[5:], uint64(episode))
	return b
}

func encodeMgrSnap(episode int64, vt []int32) []byte {
	b := make([]byte, 13+4*len(vt))
	b[0] = opMgrSnap
	binary.LittleEndian.PutUint64(b[1:], uint64(episode))
	binary.LittleEndian.PutUint32(b[9:], uint32(len(vt)))
	for i, v := range vt {
		binary.LittleEndian.PutUint32(b[13+4*i:], uint32(v))
	}
	return b
}

func encodeJoin(node int32, inc uint32) []byte {
	b := make([]byte, 9)
	b[0] = opJoin
	binary.LittleEndian.PutUint32(b[1:], uint32(node))
	binary.LittleEndian.PutUint32(b[5:], inc)
	return b
}

func encodeResume(node int32) []byte {
	b := make([]byte, 5)
	b[0] = opResume
	binary.LittleEndian.PutUint32(b[1:], uint32(node))
	return b
}

func encodeReset(victim int32, episode int64) []byte {
	b := make([]byte, 13)
	b[0] = opReset
	binary.LittleEndian.PutUint32(b[1:], uint32(victim))
	binary.LittleEndian.PutUint64(b[5:], uint64(episode))
	return b
}

func decodeCmd(b []byte) (mcmd, error) {
	var c mcmd
	if len(b) == 0 {
		return c, nil // noop
	}
	c.op = b[0]
	short := func() (mcmd, error) {
		return c, fmt.Errorf("manager: command op %d truncated (%d bytes)", c.op, len(b))
	}
	switch c.op {
	case opCkptDone, opReset:
		if len(b) < 13 {
			return short()
		}
		c.node = int32(binary.LittleEndian.Uint32(b[1:]))
		c.episode = int64(binary.LittleEndian.Uint64(b[5:]))
	case opMgrSnap:
		if len(b) < 13 {
			return short()
		}
		c.episode = int64(binary.LittleEndian.Uint64(b[1:]))
		k := int(binary.LittleEndian.Uint32(b[9:]))
		if len(b) < 13+4*k {
			return short()
		}
		c.vt = make([]int32, k)
		for i := range c.vt {
			c.vt[i] = int32(binary.LittleEndian.Uint32(b[13+4*i:]))
		}
	case opJoin:
		if len(b) < 9 {
			return short()
		}
		c.node = int32(binary.LittleEndian.Uint32(b[1:]))
		c.inc = binary.LittleEndian.Uint32(b[5:])
	case opResume:
		if len(b) < 5 {
			return short()
		}
		c.node = int32(binary.LittleEndian.Uint32(b[1:]))
	default:
		return c, fmt.Errorf("manager: unknown command op %d", c.op)
	}
	return c, nil
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
	var b []byte
	u32 := func(v uint32) {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	u64 := func(v uint64) {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	u32(uint32(s.nn))
	for _, e := range s.ckptConfirmed {
		u64(uint64(e))
	}
	for _, i := range s.incarnations {
		u32(i)
	}
	for _, r := range s.recovering {
		if r {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	u64(uint64(s.resumeEpisode))
	u32(uint32(len(s.resumeVT)))
	for _, v := range s.resumeVT {
		u32(uint32(v))
	}
	eps := make([]int64, 0, len(s.mgrVTs))
	for e := range s.mgrVTs {
		eps = append(eps, e)
	}
	sort.Slice(eps, func(i, j int) bool { return eps[i] < eps[j] })
	u32(uint32(len(eps)))
	for _, e := range eps {
		u64(uint64(e))
		vt := s.mgrVTs[e]
		u32(uint32(len(vt)))
		for _, v := range vt {
			u32(uint32(v))
		}
	}
	return b
}

// restoreState replaces the state with a decoded encodeState image — a
// consensus snapshot install bringing a far-behind or re-seeded replica
// up without replaying the compacted log. The image's cluster size must
// match; any truncation or trailing bytes is an error and leaves the
// state untouched.
func (s *mstate) restoreState(b []byte) error {
	off := 0
	short := fmt.Errorf("manager: state image truncated (%d bytes)", len(b))
	u32 := func() (uint32, bool) {
		if len(b)-off < 4 {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(b[off:])
		off += 4
		return v, true
	}
	u64 := func() (uint64, bool) {
		if len(b)-off < 8 {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(b[off:])
		off += 8
		return v, true
	}
	nn, ok := u32()
	if !ok {
		return short
	}
	if int(nn) != s.nn {
		return fmt.Errorf("manager: state image is for %d nodes, cluster has %d", nn, s.nn)
	}
	confirmed := make([]int64, s.nn)
	for w := range confirmed {
		e, ok := u64()
		if !ok {
			return short
		}
		confirmed[w] = int64(e)
	}
	incs := make([]uint32, s.nn)
	for w := range incs {
		i, ok := u32()
		if !ok {
			return short
		}
		incs[w] = i
	}
	if len(b)-off < s.nn {
		return short
	}
	rec := make([]bool, s.nn)
	for w := range rec {
		rec[w] = b[off+w] != 0
	}
	off += s.nn
	re, ok := u64()
	if !ok {
		return short
	}
	nvt, ok := u32()
	if !ok || int64(nvt)*4 > int64(len(b)-off) {
		return short
	}
	var rvt vc.VC
	for i := 0; i < int(nvt); i++ {
		v, _ := u32()
		rvt = append(rvt, int32(v))
	}
	neps, ok := u32()
	if !ok {
		return short
	}
	vts := map[int64][]int32{}
	for i := 0; i < int(neps); i++ {
		e, ok := u64()
		if !ok {
			return short
		}
		k, ok := u32()
		if !ok || int64(k)*4 > int64(len(b)-off) {
			return short
		}
		vt := make([]int32, k)
		for j := range vt {
			v, _ := u32()
			vt[j] = int32(v)
		}
		vts[int64(e)] = vt
	}
	if off != len(b) {
		return fmt.Errorf("manager: %d trailing state image bytes", len(b)-off)
	}
	s.mu.Lock()
	s.ckptConfirmed = confirmed
	s.incarnations = incs
	s.recovering = rec
	s.resumeEpisode = int64(re)
	s.resumeVT = rvt
	s.mgrVTs = vts
	s.mu.Unlock()
	return nil
}
