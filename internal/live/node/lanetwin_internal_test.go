package node

import (
	"bytes"
	"testing"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/live/wire"
	"lrcdsm/internal/page"
)

// These tests pin the region-masked twin of a write under Node.mu (see
// lpage.twin): a lane's write saves only the regions it touches, so the
// twin's other bytes are whatever the pool handed back, and everything
// that reads the twin — the committed view, the release's diff, a
// re-fetch's rebase — must stay inside the mask.

// laneCluster starts n nodes sharing npages pages of pageSize bytes
// homed at node 0, with one lock per node.
func laneCluster(t *testing.T, n, pageSize, npages int, prot core.Protocol) []*Node {
	t.Helper()
	cfg := Config{
		PageSize: pageSize, NPages: npages, Homes: make([]int32, npages),
		NLocks: n, NBars: 1, Protocol: prot, HeartbeatTimeout: -1,
	}
	trs := transport.NewInprocNetwork(n)
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = New(trs[i], cfg)
		nodes[i].Start()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
		for _, tr := range trs {
			tr.Close()
		}
		for _, nd := range nodes {
			waitClosed(t, nd)
		}
	})
	return nodes
}

// seedTwinPool returns junk-filled buffers of size bytes to the twin
// pool, so the next twins start out differing from every page.
func seedTwinPool(size int) {
	for i := 0; i < 8; i++ {
		junk := page.NewBuf(size)
		for j := range junk {
			junk[j] = 0xee
		}
		page.FreeTwin(junk)
	}
}

// homeLog returns a copy of the diff log node n keeps for page pg.
func homeLog(n *Node, pg int) []wire.Diff {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]wire.Diff(nil), n.pages[pg].log...)
}

// onlyWords fails the test unless d modifies exactly the byte offsets
// want, to the values want maps them to.
func onlyWords(t *testing.T, who string, d page.Diff, want map[int]uint64) {
	t.Helper()
	got := map[int]uint64{}
	for _, r := range d.Runs {
		for i, w := range r.Words {
			got[(int(r.Off)+i)*page.WordSize] = w
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: diff words %v, want %v", who, got, want)
		return
	}
	for off, v := range want {
		if got[off] != v {
			t.Errorf("%s: diff words %v, want %v", who, got, want)
			return
		}
	}
}

// TestLaneTwinCommittedView: while a lane holds an open write to one
// region of a homed page, a remote fault (handlePageReq) and
// CopyHomePage serve that region's pre-interval bytes, and the rest of
// the page from data — the twin holds junk there.
func TestLaneTwinCommittedView(t *testing.T) {
	nodes := laneCluster(t, 2, 4096, 1, core.LI)
	seedTwinPool(4096)
	home := nodes[0].LaneWorker(1)
	home.Lock(0)
	home.WriteU64(0, 11)    // region 0
	home.WriteU64(1024, 22) // region 16
	home.Unlock(0)

	home.Lock(0)
	home.WriteU64(1024, 99) // open: region 16 saved, region 0 not
	nodes[0].mu.Lock()
	dirty := nodes[0].pages[0].dirty
	nodes[0].mu.Unlock()
	if dirty != page.Region(4096, 1024) {
		t.Fatalf("dirty = %#x, want region 16 alone", dirty)
	}
	want := page.NewBuf(4096)
	want.PutU64(0, 11)
	want.PutU64(1024, 22)
	img := make([]byte, 4096)
	nodes[0].CopyHomePage(0, img)
	if !bytes.Equal(img, want) {
		t.Errorf("CopyHomePage: words 0, 128, 129 = %d, %d, %#x; want 11, 22, 0",
			page.Buf(img).U64(0), page.Buf(img).U64(1024), page.Buf(img).U64(1032))
	}
	// Node 1 has no copy: its first read faults the page from the home.
	for off := 0; off < 4096; off += page.WordSize {
		if v := nodes[1].ReadU64(core.Addr(off)); v != want.U64(off) {
			t.Errorf("page fault served %#x at byte %d, want %d", v, off, want.U64(off))
		}
	}
	home.Unlock(0)
	nodes[0].CopyHomePage(0, img)
	if v := page.Buf(img).U64(1024); v != 99 {
		t.Errorf("after the release word 128 = %d, want 99", v)
	}
}

// TestLaneUnalignedWriteStraddlesRegions: a lane's unaligned word that
// reaches into the next region saves both regions — on 256-byte pages
// (one word per region) and across the 64-byte boundary of a 4 KB page.
// Until the release the home serves both words' committed bytes; after
// it the home holds the new word and the diff carries both words.
func TestLaneUnalignedWriteStraddlesRegions(t *testing.T) {
	for _, c := range []struct{ size, off int }{{256, 12}, {4096, 60}} {
		nodes := laneCluster(t, 2, c.size, 1, core.LI)
		seedTwinPool(c.size)
		lo := c.off &^ (page.WordSize - 1) // the two words the write touches
		hi := lo + page.WordSize
		home := nodes[0].LaneWorker(1)
		home.Lock(0)
		home.WriteU64(core.Addr(lo), 0x1111111111111111)
		home.WriteU64(core.Addr(hi), 0x2222222222222222)
		home.Unlock(0)
		before := make([]byte, c.size)
		nodes[0].CopyHomePage(0, before)

		home.Lock(0)
		home.WriteU64(core.Addr(c.off), 0xaabbccddeeff0011)
		img := make([]byte, c.size)
		nodes[0].CopyHomePage(0, img)
		if !bytes.Equal(img, before) {
			t.Errorf("%d B page: open write leaks into CopyHomePage: words %#x, %#x; want %#x, %#x", c.size,
				page.Buf(img).U64(lo), page.Buf(img).U64(hi), page.Buf(before).U64(lo), page.Buf(before).U64(hi))
		}
		for _, off := range []int{lo, hi} {
			if v, want := nodes[1].ReadU64(core.Addr(off)), page.Buf(before).U64(off); v != want {
				t.Errorf("%d B page: page fault served %#x at byte %d, want %#x", c.size, v, off, want)
			}
		}
		home.Unlock(0)

		want := page.NewBuf(c.size)
		copy(want, before)
		want.PutU64(c.off, 0xaabbccddeeff0011)
		nodes[0].CopyHomePage(0, img)
		if !bytes.Equal(img, want) {
			t.Errorf("%d B page: home words %#x, %#x after the release; want %#x, %#x", c.size,
				page.Buf(img).U64(lo), page.Buf(img).U64(hi), want.U64(lo), want.U64(hi))
		}
		log := homeLog(nodes[0], 0)
		if len(log) != 2 {
			t.Fatalf("%d B page: home log holds %d diffs, want 2", c.size, len(log))
		}
		onlyWords(t, "straddling write", log[1].D, map[int]uint64{lo: want.U64(lo), hi: want.U64(hi)})
	}
}

// TestPartialTwinNotWritable: a page written by lanes never carries
// pageWritable, even once every region is saved (its mask is full only
// for the own worker), so no lock-free write lands outside the twin; the
// own worker's locked write does make it writable.
func TestPartialTwinNotWritable(t *testing.T) {
	nodes := laneCluster(t, 1, 256, 1, core.LH)
	n := nodes[0]
	state := func() (uint32, uint64) {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.pages[0].state.Load(), n.pages[0].dirty
	}
	w := n.LaneWorker(1)
	w.Lock(0)
	for off := 0; off < 256; off += page.WordSize {
		w.WriteU64(core.Addr(off), uint64(off))
		if s, d := state(); s&pageWritable != 0 {
			t.Fatalf("after a lane write to byte %d: state %#x (dirty %#x) is writable", off, s, d)
		}
	}
	w.Unlock(0)
	n.Lock(0)
	n.WriteU64(8, 1)
	if s, d := state(); s&pageWritable == 0 || d != page.Full {
		t.Errorf("own worker's write: state %#x, dirty %#x; want writable under a full mask", s, d)
	}
	n.Unlock(0)
}

// TestLaneFalseSharingSmallPage: on 256-byte pages (one word per
// region) lanes of two nodes write different words of one page under
// different locks. The home merges both, and each writer's diff carries
// only its own word — not the stale pool bytes around it.
func TestLaneFalseSharingSmallPage(t *testing.T) {
	for _, prot := range []core.Protocol{core.LI, core.LH} {
		nodes := laneCluster(t, 3, 256, 1, prot)
		seedTwinPool(256)
		const rounds = 20
		done := make(chan struct{})
		for _, id := range []int{1, 2} {
			go func(id int) {
				defer func() { done <- struct{}{} }()
				w := nodes[id].LaneWorker(1)
				for i := uint64(1); i <= rounds; i++ {
					w.Lock(id)
					w.WriteU64(core.Addr(8*id), i<<8|uint64(id))
					w.Unlock(id)
				}
				nodes[id].drainFlights()
			}(id)
		}
		<-done
		<-done
		img := make([]byte, 256)
		nodes[0].CopyHomePage(0, img)
		for _, id := range []int{1, 2} {
			if v, want := page.Buf(img).U64(8*id), uint64(rounds<<8|id); v != want {
				t.Errorf("%v: home word %d = %#x, want %#x", prot, id, v, want)
			}
		}
		for _, wd := range homeLog(nodes[0], 0) {
			id := int(wd.Writer)
			onlyWords(t, prot.String(), wd.D, map[int]uint64{8 * id: uint64(wd.Index)<<8 | uint64(id)})
		}
	}
}

// TestLaneRebaseUnderPartialTwin: a fresh copy installed while a lane's
// interval is open (installPage's rebase) keeps the lane's write, takes
// the fresh bytes everywhere else — inside the dirty region too — and
// leaves the release's diff carrying the lane's word alone.
func TestLaneRebaseUnderPartialTwin(t *testing.T) {
	nodes := laneCluster(t, 2, 4096, 1, core.LI)
	seedTwinPool(4096)
	w := nodes[1].LaneWorker(1)
	w.Lock(1)
	w.WriteU64(1024, 7) // faults the page in, then saves region 16
	fresh := page.NewBuf(4096)
	fresh.PutU64(0, 5)    // another region
	fresh.PutU64(1032, 9) // region 16, a word the lane did not write
	if !nodes[1].installPage(0, fresh, make([]int32, 2)) {
		t.Fatal("installPage refused a copy covering an empty need")
	}
	for _, c := range []struct{ off, want uint64 }{{0, 5}, {1024, 7}, {1032, 9}} {
		if v := w.ReadU64(core.Addr(c.off)); v != c.want {
			t.Errorf("after the rebase byte %d = %d, want %d", c.off, v, c.want)
		}
	}
	w.Unlock(1)
	nodes[1].drainFlights()
	log := homeLog(nodes[0], 0)
	if len(log) != 1 {
		t.Fatalf("home log holds %d diffs, want 1", len(log))
	}
	onlyWords(t, "rebased lane", log[0].D, map[int]uint64{1024: 7})
}

// TestResetClearsMask: ResetToCheckpoint drops an open lane interval's
// twin and its mask, so the next interval's first write saves every
// region it needs — a stale mask would leave them junk, and the diff
// would carry it.
func TestResetClearsMask(t *testing.T) {
	nodes := laneCluster(t, 1, 4096, 1, core.LH)
	n := nodes[0]
	seedTwinPool(4096)
	w := n.LaneWorker(1)
	w.Lock(0)
	w.WriteU64(1024, 3)
	w.Unlock(0)
	w.Lock(0)
	w.WriteU64(1024, 5) // the twin's region 16 holds 3, the reset image 0
	n.ResetToCheckpoint(nil)
	n.mu.Lock()
	twin, dirty := n.pages[0].twin, n.pages[0].dirty
	n.mu.Unlock()
	if twin != nil || dirty != 0 {
		t.Fatalf("after reset: twin held %v, dirty = %#x; want none", twin != nil, dirty)
	}
	n.Lock(0)
	n.WriteU64(8, 4)
	n.Unlock(0)
	log := homeLog(n, 0)
	if len(log) != 1 {
		t.Fatalf("home log holds %d diffs, want 1", len(log))
	}
	onlyWords(t, "after reset", log[0].D, map[int]uint64{8: 4})
}
