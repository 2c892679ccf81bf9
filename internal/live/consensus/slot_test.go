package consensus

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"lrcdsm/internal/live/wire"
)

// stepRep is one replica driven by hand: never started, its frames are
// fed to step and its sends collected, so a test sees exactly what it
// answers. Its state machine is a counter of applied commands, a
// fixed-size image.
type stepRep struct {
	*Rep
	sent    []*wire.Msg
	applied uint64
}

func newStepRep(t *testing.T, self int, st *Stable) *stepRep {
	t.Helper()
	s := &stepRep{}
	s.Rep = New(Config{
		Self: self, N: 3,
		ElectionTimeout: time.Millisecond,
		Send:            func(_ int, m *wire.Msg) { s.sent = append(s.sent, m) },
		Apply:           func(int64, []byte) { s.applied++ },
		SnapshotState:   func() []byte { return binary.LittleEndian.AppendUint64(nil, s.applied) },
		InstallState:    func(app []byte) { s.applied = binary.LittleEndian.Uint64(app) },
	}, st)
	return s
}

// last returns the newest frame the replica sent.
func (s *stepRep) last(t *testing.T) *wire.Msg {
	t.Helper()
	if len(s.sent) == 0 {
		t.Fatal("the replica sent nothing")
	}
	return s.sent[len(s.sent)-1]
}

// slotState is the state image of a replica that applied n commands,
// with voters {0, 1, 2}.
func slotState(n uint64) []byte {
	return encodeSnap([]int32{0, 1, 2}, binary.LittleEndian.AppendUint64(nil, n))
}

func appendFrom(ldr int32, term, version int64) *wire.Msg {
	return &wire.Msg{Kind: wire.KAppend, From: ldr, Term: term, LogIndex: version, Data: slotState(uint64(version))}
}

// TestOlderAppendNeverRegresses: an append of an older version that
// arrives after a newer one — reordered by the network, or a leader's
// heartbeat overtaken by its next version — neither moves the follower's
// state back nor lowers the version it acknowledges or persists.
func TestOlderAppendNeverRegresses(t *testing.T) {
	st := NewStable()
	f := newStepRep(t, 1, st)
	f.step(appendFrom(0, 2, 5))
	f.step(appendFrom(0, 2, 3))
	if f.version != 5 || f.applied != 5 || st.Version() != 5 {
		t.Errorf("after versions 5 then 3 the follower holds version %d with %d commands (persisted %d), want 5",
			f.version, f.applied, st.Version())
	}
	if ack := f.last(t); ack.Kind != wire.KAppendAck || ack.LogIndex != 5 {
		t.Errorf("the follower answered the older append with %v version %d, want append-ack 5", ack.Kind, ack.LogIndex)
	}
	// A slot of a newer term replaces a higher version of an older one.
	f.step(appendFrom(2, 3, 4))
	if f.slotTerm != 3 || f.version != 4 || f.applied != 4 {
		t.Errorf("a newer term's version 4 left the follower at (%d, %d)", f.slotTerm, f.version)
	}
}

// TestQuarantinedVotesAfterReseed: a replica whose slot was quarantined
// at load refuses to vote — the lost slot may have held a vote in the
// current term — until it accepts a leader's slot, and votes after.
func TestQuarantinedVotesAfterReseed(t *testing.T) {
	st := NewStable()
	newStepRep(t, 1, st).step(appendFrom(0, 2, 3))
	if !st.Corrupt() {
		t.Fatal("the slot is empty")
	}
	f := newStepRep(t, 1, st)
	if st.Quarantines() != 1 || f.version != 0 {
		t.Fatalf("the corrupt slot loaded as version %d, %d quarantines", f.version, st.Quarantines())
	}
	f.step(&wire.Msg{Kind: wire.KVoteReq, From: 2, Term: 4, LogTerm: 3, LogIndex: 9})
	if resp := f.last(t); resp.Kind != wire.KVoteResp || resp.Flag != 0 {
		t.Fatalf("the quarantined replica answered %v flag %d, want a refused vote", resp.Kind, resp.Flag)
	}
	f.step(appendFrom(0, 4, 7))
	if f.version != 7 || st.Version() != 7 || f.applied != 7 {
		t.Fatalf("the append re-seeded version %d (persisted %d)", f.version, st.Version())
	}
	time.Sleep(2 * time.Millisecond) // past the heard-leader window
	f.step(&wire.Msg{Kind: wire.KVoteReq, From: 2, Term: 5, LogTerm: 4, LogIndex: 7})
	if resp := f.last(t); resp.Kind != wire.KVoteResp || resp.Flag != 1 {
		t.Fatalf("the re-seeded replica answered %v flag %d, want a granted vote", resp.Kind, resp.Flag)
	}
}

// TestAppendSizeIgnoresOutstanding: an append carries the leader's
// latest slot, so its size is the state's and does not grow with the
// number of proposals still waiting for their commit.
func TestAppendSizeIgnoresOutstanding(t *testing.T) {
	ld := newStepRep(t, 0, NewStable())
	ld.term = 1
	ld.becomeLeader()
	size := func() int { return len(wire.Encode(ld.last(t))) }
	var pending int
	propose := func(n int) {
		for i := 0; i < n; i++ {
			ld.propose(proposal{cmd: []byte("ckpt-done"), done: func(err error) {
				if err == nil {
					t.Error("a proposal committed without a follower's ack")
				}
			}})
			pending++
		}
	}
	propose(1)
	one := size()
	propose(99)
	if got := size(); got != one {
		t.Errorf("an append is %d bytes with %d proposals outstanding, %d with one", got, pending, one)
	}
	if len(ld.waiters) != pending {
		t.Errorf("%d proposals wait, want %d", len(ld.waiters), pending)
	}
	ld.failPending(ErrStopped)
}

// TestDeposedLeadersMajorityVersionSurvives: a version a voter majority
// accepted under a leader that was deposed before it learned of the
// commit is in the next leader's committed state, although a replica
// cut off since an older term holds a higher version number: votes
// compare the slot's term before its version.
//
// Voters 0, 1 and 2. Node 0 leads term 1 and is cut off, and queues
// versions no one receives. Of the other two, the leader L of the next
// term sends "kept" to the follower F, whose acks are cut, so L never
// learns the commit; L dies. Healed towards F, node 0 has the higher
// version of the older term, F the lower version of the newer term:
// only F may win.
func TestDeposedLeadersMajorityVersionSurvives(t *testing.T) {
	h := newHarness(t, 3, 100*time.Millisecond)
	defer h.stopAll()
	h.waitLeader()
	if err := h.proposeOK(0, "first"); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 2} {
		h.waitApplied(i, "first")
	}
	h.mu.Lock()
	h.cut[[2]int{0, 1}], h.cut[[2]int{0, 2}] = true, true
	h.mu.Unlock()
	for k := 0; k < 5; k++ {
		h.reps[0].Propose([]byte(fmt.Sprintf("lost-%d", k)), nil)
		time.Sleep(5 * time.Millisecond) // one version each
	}
	ld := h.waitLeader(0)
	f := 3 - ld
	h.mu.Lock()
	h.oneWay[[2]int{f, ld}] = true
	h.mu.Unlock()
	h.reps[ld].Propose([]byte("kept"), nil)
	h.waitApplied(f, "kept")
	h.kill(ld)
	h.mu.Lock()
	delete(h.cut, [2]int{0, f})
	h.mu.Unlock()

	next := h.waitLeader(ld)
	if err := h.proposeOK(next, "after"); err != nil {
		t.Fatalf("propose on %d: %v", next, err)
	}
	if !h.hasApplied(next, "kept") {
		h.mu.Lock()
		defer h.mu.Unlock()
		t.Fatalf("leader %d committed a state without the majority's version: %v", next, h.applied[next])
	}
	h.waitApplied(0, "after")
	h.sameApplyOrder(next, 0)
}
