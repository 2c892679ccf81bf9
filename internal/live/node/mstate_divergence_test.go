package node

import (
	"bytes"
	"testing"
)

// mstateLog is a command history exercising every opcode, including the
// duplications and re-applies a leader change produces: confirmations
// arriving twice, a rollback clamping confirmations, and the rejoin
// that ends it.
func mstateLog(nn int) [][]byte {
	var log [][]byte
	log = append(log, nil) // leader-change noop
	for e := int64(1); e <= int64(keepCheckpoints)+2; e++ {
		for w := 0; w < nn; w++ {
			log = append(log, encodeCkptDone(int32(w), e))
		}
		// A retried proposal commits the same fact twice.
		log = append(log, encodeCkptDone(0, e))
	}
	log = append(log, encodeReset(2, int64(keepCheckpoints)))
	log = append(log, encodeResume(2))
	log = append(log, []byte{}) // empty = noop too
	return log
}

// TestMstateReplicaDivergence drives several fresh replicas through the
// same command log and demands byte-identical encoded state — the
// property the whole replicated-manager design leans on: agreement on
// the log is agreement on the state.
func TestMstateReplicaDivergence(t *testing.T) {
	const nn, replicas = 4, 5
	log := mstateLog(nn)
	var ref []byte
	for r := 0; r < replicas; r++ {
		s := newMstate(nn)
		for i, raw := range log {
			c, err := decodeCmd(raw)
			if err != nil {
				t.Fatalf("replica %d: decode cmd %d: %v", r, i, err)
			}
			if err := s.apply(c); err != nil {
				t.Fatalf("replica %d: apply cmd %d: %v", r, i, err)
			}
		}
		enc := s.encodeState()
		if r == 0 {
			ref = enc
			continue
		}
		if !bytes.Equal(enc, ref) {
			t.Fatalf("replica %d diverged: %d bytes vs %d reference\n got %x\nwant %x",
				r, len(enc), len(ref), enc, ref)
		}
	}
	if len(ref) == 0 {
		t.Fatal("encoded state is empty — nothing was compared")
	}
}

// TestMstateEncodeRoundsStable re-encodes the same replica twice; the
// image must be a function of the state alone.
func TestMstateEncodeRoundsStable(t *testing.T) {
	s := newMstate(4)
	for _, raw := range mstateLog(4) {
		c, err := decodeCmd(raw)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.apply(c); err != nil {
			t.Fatal(err)
		}
	}
	a, b := s.encodeState(), s.encodeState()
	if !bytes.Equal(a, b) {
		t.Fatalf("same state encoded differently across calls:\n %x\n %x", a, b)
	}
}

// TestMstateApplyIdempotent re-applies the full log to a replica that
// already holds its outcome; the state must not move.
func TestMstateApplyIdempotent(t *testing.T) {
	s := newMstate(4)
	log := mstateLog(4)
	run := func() {
		for _, raw := range log {
			c, err := decodeCmd(raw)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.apply(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	first := s.encodeState()
	run()
	if second := s.encodeState(); !bytes.Equal(first, second) {
		t.Fatalf("re-applying the log moved the state:\n %x\n %x", first, second)
	}
}
