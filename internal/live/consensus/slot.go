package consensus

import (
	"fmt"
	"hash/crc32"
	"sync"

	"lrcdsm/internal/live/codec"
)

// durable is the decoded content of a Stable slot.
type durable struct {
	term     int64
	votedFor int32
	slotTerm int64
	version  int64
	state    []byte // encodeSnap(voters, app); empty at version 0
}

// Stable is one replica's durable consensus state, held as one encoded,
// checksummed blob. The supervisor holds one slot per node across
// restarts; a fresh incarnation loads the term it last voted in and the
// version it last acknowledged, which is what makes a restarted replica
// safe to re-admit to the quorum. A slot whose checksum fails at load —
// a torn or corrupted write — is quarantined: the load returns empty
// state, the quarantine is counted, and the replica re-seeds from the
// leader instead of trusting bad bytes.
type Stable struct {
	mu          sync.Mutex
	blob        []byte
	quarantines int64
	version     int64 // mirrored out of the last save
}

// NewStable returns an empty slot (term 0, no vote, version 0).
func NewStable() *Stable { return &Stable{} }

// load decodes the slot, verifying its checksum. quarantined reports a
// corrupt slot: the returned state is empty and the slot is cleared.
func (s *Stable) load() (durable, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.blob == nil {
		return durable{votedFor: -1}, false
	}
	d, err := decodeSlot(s.blob)
	if err != nil {
		s.blob, s.version = nil, 0
		s.quarantines++
		return durable{votedFor: -1}, true
	}
	return d, false
}

func (s *Stable) save(d *durable) {
	b := encodeSlot(d)
	s.mu.Lock()
	s.blob, s.version = b, d.version
	s.mu.Unlock()
}

// Version reports the persisted slot's version (0 = none yet).
func (s *Stable) Version() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Size reports the persisted slot's encoded size in bytes. It holds one
// state image, so it does not grow with the number of commits.
func (s *Stable) Size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blob)
}

// Quarantines reports how many corrupt loads this slot has quarantined.
func (s *Stable) Quarantines() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantines
}

// Corrupt flips one byte of the stored blob — a deliberately torn slot
// for integrity tests. It reports false if the slot is empty.
func (s *Stable) Corrupt() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.blob) == 0 {
		return false
	}
	b := append([]byte(nil), s.blob...)
	b[len(b)/2] ^= 0xFF
	s.blob = b
	return true
}

// encodeSlot serializes d with a trailing CRC32 over everything before
// it. decodeSlot is its strict inverse: any truncation, trailing bytes
// or checksum mismatch is an error, never a panic.
func encodeSlot(d *durable) []byte {
	w := codec.Writer{B: make([]byte, 0, 36+len(d.state)+4)}
	w.I64(d.term)
	w.I32(d.votedFor)
	w.I64(d.slotTerm)
	w.I64(d.version)
	w.Bytes(d.state)
	w.U32(crc32.ChecksumIEEE(w.B))
	return w.B
}

func decodeSlot(b []byte) (durable, error) {
	var d durable
	if len(b) < 4 {
		return d, fmt.Errorf("consensus: slot of %d bytes is short", len(b))
	}
	body := b[:len(b)-4]
	sum := codec.NewReader(b[len(body):], "consensus: slot checksum")
	if crc32.ChecksumIEEE(body) != sum.U32() {
		return d, fmt.Errorf("consensus: slot checksum mismatch")
	}
	r := codec.NewReader(body, "consensus: slot")
	d.term = r.I64()
	d.votedFor = r.I32()
	d.slotTerm = r.I64()
	d.version = r.I64()
	d.state = r.Bytes()
	return d, r.Done()
}

// encodeSnap wraps the application state image with the voting
// membership, so an installed slot seeds both the state machine and the
// receiver's config.
func encodeSnap(voters []int32, app []byte) []byte {
	w := codec.Writer{B: make([]byte, 0, 8+4*len(voters)+len(app))}
	w.I32s(voters)
	w.Bytes(app)
	return w.B
}

// decodeSnap is encodeSnap's strict inverse; app aliases b.
func decodeSnap(b []byte) (voters []int32, app []byte, err error) {
	r := codec.NewReader(b, "consensus: snapshot blob")
	voters = r.I32s()
	app = r.View()
	if err := r.Done(); err != nil {
		return nil, nil, err
	}
	return voters, app, nil
}
