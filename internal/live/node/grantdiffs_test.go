package node_test

import (
	"testing"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/chaos"
	"lrcdsm/internal/live/node"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/live/wire"
)

// These tests pin the LH grant's carried diffs (DESIGN.md §9.2): a granter
// puts on the grant the diffs of the noticed pages it homes, and the
// acquirer applies a page's diffs only when they make its copy current —
// every other page is pulled. Each test names the piece whose removal
// makes it fail.

// pingPong alternates lock 0 between a (which writes word off of page 0
// once per round) and b (which reads it back), rounds times, and returns
// what b read in the last round.
func pingPong(t *testing.T, a, b *node.Node, rounds int, off core.Addr) (last uint64) {
	t.Helper()
	turnA, turnB := make(chan struct{}), make(chan struct{})
	runWorkers(t,
		func() {
			for i := 1; i <= rounds; i++ {
				a.Lock(0)
				a.WriteU64(off, uint64(i))
				a.Unlock(0)
				turnB <- struct{}{}
				<-turnA
			}
		},
		func() {
			for i := 1; i <= rounds; i++ {
				<-turnB
				b.Lock(0)
				if last = b.ReadU64(off); last != uint64(i) {
					t.Errorf("round %d: reader saw %d", i, last)
				}
				b.Unlock(0)
				turnA <- struct{}{}
			}
		},
	)
	return last
}

// TestGrantDiffsSkipPrunedLog, piece (b): a page whose log was pruned
// past the requester's vector time is not carried — the tail would miss
// the pruned intervals — and the pull falls back to a full copy.
func TestGrantDiffsSkipPrunedLog(t *testing.T) {
	nodes, stop := startNodes(t, onePage(0, core.LH), 2)
	defer stop()
	a, b := nodes[0], nodes[1]
	if v := b.ReadU64(8); v != 0 {
		t.Fatalf("first read = %d, want 0", v)
	}
	a.Lock(0)
	a.WriteU64(8, 9) // only the first interval writes word 8
	a.Unlock(0)
	const writes = 70 // > homeLogCap
	for i := 1; i <= writes; i++ {
		a.Lock(0)
		a.WriteU64(0, uint64(i))
		a.Unlock(0)
	}
	var got0, got8 uint64
	runWorkers(t, func() {
		b.Lock(0)
		got0, got8 = b.ReadU64(0), b.ReadU64(8)
		b.Unlock(0)
	})
	if got0 != writes || got8 != 9 {
		t.Errorf("B read (%d, %d), want %d and 9", got0, got8, writes)
	}
	if s := b.Stats(); s.GrantDiffs != 0 || s.DiffPulls != 1 || s.PageFetches != 2 {
		t.Errorf("grant diffs %d, pulls %d, fetches %d; want 0, 1 and 2 (first fault + pruned-log fallback)",
			s.GrantDiffs, s.DiffPulls, s.PageFetches)
	}
}

// TestGrantDiffsAppliedOnce, piece (c): every frame is duplicated, so
// homes re-serve cached grants, and A's first grant also carries D's
// write to the page — an interval past B's vector time that B's copy
// already holds, because B fetched the page after D's flush landed. B
// must incorporate each interval exactly once: one per round of A's.
func TestGrantDiffsAppliedOnce(t *testing.T) {
	const rounds = 20
	trs := transport.NewInprocNetwork(3)
	wrapped := chaos.WrapAll(trs, chaos.Config{Seed: 1, DupP: 1})
	nodes := make([]*node.Node, 3)
	for i := range nodes {
		nodes[i] = node.New(wrapped[i], onePage(0, core.LH))
		nodes[i].Start()
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
		for _, tr := range trs {
			tr.Close()
		}
		for _, nd := range nodes {
			nd.Wait()
		}
	}()
	a, b, d := nodes[0], nodes[1], nodes[2]
	d.Lock(1)
	d.WriteU64(16, 5)
	d.Unlock(1)
	d.FinalFlush()
	a.Lock(1) // A learns D's interval; B does not
	a.Unlock(1)
	if v := b.ReadU64(16); v != 5 { // B's copy holds D's write
		t.Fatalf("first read = %d, want 5", v)
	}
	if last := pingPong(t, a, b, rounds, 0); last != rounds {
		t.Errorf("last round read %d, want %d", last, rounds)
	}
	s := b.Stats()
	if s.DupReplies == 0 {
		t.Error("no duplicate reply reached B; the grants were not re-served")
	}
	if s.GrantDiffs != rounds || s.DiffPulls != 0 {
		t.Errorf("grant diffs %d, pulls %d; want %d and 0", s.GrantDiffs, s.DiffPulls, rounds)
	}
	if s.DiffsApplied != rounds {
		t.Errorf("B applied %d diffs, want %d (each of A's intervals once, D's never again)", s.DiffsApplied, rounds)
	}
}

// TestLIGrantsCarryNoDiffs, piece (d): only LH grants carry diffs. A
// transport wrapper decodes every grant A sends; under LI none may carry
// a diff (and under LH they do, or the check proves nothing).
func TestLIGrantsCarryNoDiffs(t *testing.T) {
	bothProtocols(t, func(t *testing.T, prot core.Protocol) {
		nodes, gates, stop := startGated(t, sameCfg(onePage(0, prot), 2)...)
		defer stop()
		carried := 0
		gates[0].rewrite = func(payload []byte) [][]byte {
			if m, err := wire.Decode(payload); err == nil {
				carried += len(m.Diffs)
			}
			return [][]byte{payload}
		}
		gates[0].setKind(wire.KLockGrant)
		a, b := nodes[0], nodes[1]
		if v := b.ReadU64(0); v != 0 {
			t.Fatalf("first read = %d, want 0", v)
		}
		pingPong(t, a, b, 5, 0)
		gates[0].mu.Lock()
		defer gates[0].mu.Unlock()
		switch {
		case prot == core.LI && (carried != 0 || b.Stats().GrantDiffs != 0):
			t.Errorf("LI grants carried %d diffs (%d pages made current)", carried, b.Stats().GrantDiffs)
		case prot == core.LH && carried == 0:
			t.Error("LH grants carried no diffs")
		}
	})
}
