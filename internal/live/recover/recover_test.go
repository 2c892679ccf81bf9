package recover

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"
)

func sampleNode(ep int64, node int32) *NodeSnapshot {
	return &NodeSnapshot{
		Episode: ep,
		Node:    node,
		VT:      []int32{3, 1, 4, 1},
		Pages: []PageImage{
			{Page: 0, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}, HomeVT: []int32{1, 0, 2, 0}},
			{Page: 7, Data: make([]byte, 4096), HomeVT: []int32{0, 0, 0, 1}},
		},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	ns := sampleNode(4, 2)
	got, err := DecodeNode(EncodeNode(ns))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ns, got) {
		t.Errorf("node snapshot round trip mismatch:\n got %+v\nwant %+v", got, ns)
	}
}

func TestCodecRejectsMalformed(t *testing.T) {
	nb := EncodeNode(sampleNode(1, 0))
	for i := 0; i < len(nb); i++ {
		if _, err := DecodeNode(nb[:i]); err == nil {
			t.Fatalf("truncated node snapshot (%d/%d bytes) decoded", i, len(nb))
		}
	}
	if _, err := DecodeNode(append(nb, 0)); err == nil {
		t.Error("node snapshot with trailing byte decoded")
	}
	foreign := append([]byte("LRCX"), nb[4:]...)
	if _, err := DecodeNode(foreign); err == nil {
		t.Error("bytes under another magic decoded as node snapshot")
	}
	bad := append([]byte(nil), nb...)
	bad[4] = 99 // version
	if _, err := DecodeNode(bad); err == nil {
		t.Error("unknown snapshot version decoded")
	}
}

// storeContract exercises the Store interface contract shared by both
// implementations.
func storeContract(t *testing.T, st Store) {
	t.Helper()
	if _, err := st.GetNode(1, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("empty store GetNode err = %v, want ErrNotFound", err)
	}

	for _, ep := range []int64{2, 4, 6} {
		for n := int32(0); n < 3; n++ {
			if err := st.PutNode(sampleNode(ep, n)); err != nil {
				t.Fatal(err)
			}
		}
	}

	got, err := st.GetNode(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleNode(4, 2)) {
		t.Errorf("GetNode(4,2) mismatch: %+v", got)
	}
	// A snapshot is immutable once put, which is what lets the store keep
	// it, and hand it out, without copying: putting the one just read
	// under another episode, or the same one twice, is legal, and every
	// holder goes on seeing the same bytes.
	again := *got
	again.Episode = 5
	for i := 0; i < 2; i++ {
		if err := st.PutNode(&again); err != nil {
			t.Fatal(err)
		}
	}
	moved, err := st.GetNode(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleNode(4, 2)
	want.Episode = 5
	if !reflect.DeepEqual(moved, want) {
		t.Errorf("re-put snapshot mismatch: %+v", moved)
	}
	if still, _ := st.GetNode(4, 2); !reflect.DeepEqual(still, sampleNode(4, 2)) {
		t.Errorf("GetNode(4,2) changed after its pages were put again: %+v", still)
	}

	if got, err := st.GetNode(6, 1); err != nil || !reflect.DeepEqual(got, sampleNode(6, 1)) {
		t.Errorf("GetNode(6,1) = %+v, %v", got, err)
	}

	if err := st.Prune(3); err != nil {
		t.Fatal(err)
	}
	if _, err := st.GetNode(2, 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("pruned episode 2 still present (err %v)", err)
	}
	if _, err := st.GetNode(4, 1); err != nil {
		t.Errorf("kept episode 4 missing after prune: %v", err)
	}
	if _, err := st.GetNode(6, 0); err != nil {
		t.Errorf("kept episode 6 missing after prune: %v", err)
	}
}

func TestMemStore(t *testing.T) { storeContract(t, NewMemStore()) }

// storeConcurrent runs the store the way a cluster does — every node's
// worker putting and pruning, the manager reading replicas — with the
// snapshots sharing page images, as consecutive checkpoints of one node
// do. Under -race it checks that nothing in the store writes to a
// snapshot it was given.
func storeConcurrent(t *testing.T, st Store) {
	t.Helper()
	const nodes, episodes = 4, 12
	shared := sampleNode(0, 0).Pages
	var wg sync.WaitGroup
	for n := int32(0); n < nodes; n++ {
		wg.Add(2)
		go func(n int32) {
			defer wg.Done()
			for ep := int64(1); ep <= episodes; ep++ {
				s := &NodeSnapshot{Episode: ep, Node: n, VT: []int32{int32(ep)}, Pages: shared}
				if err := st.PutNode(s); err != nil {
					t.Error(err)
					return
				}
				if err := st.Prune(4); err != nil {
					t.Error(err)
					return
				}
			}
		}(n)
		go func(n int32) {
			defer wg.Done()
			for i := 0; i < 4*episodes; i++ {
				// Not stored yet, or dropped by a concurrent Prune.
				ep := int64(i%episodes + 1)
				s, err := st.GetNode(ep, int(n))
				if errors.Is(err, ErrNotFound) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if s.Episode != ep || s.Node != n || !reflect.DeepEqual(s.Pages, shared) {
					t.Errorf("GetNode(%d,%d) returned episode %d node %d", ep, n, s.Episode, s.Node)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	for n := 0; n < nodes; n++ {
		if s, err := st.GetNode(episodes, n); err != nil || s.Episode != episodes || s.Node != int32(n) {
			t.Errorf("GetNode(%d,%d) = %+v, %v", episodes, n, s, err)
		}
	}
}

func TestMemStoreConcurrent(t *testing.T) { storeConcurrent(t, NewMemStore()) }

func TestDirStoreConcurrent(t *testing.T) {
	st, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	storeConcurrent(t, st)
}

// TestDirStoreSameSnapshotTwice: a killed incarnation still finishing
// and its replacement may store the same snapshot at once; every write
// must succeed and leave the snapshot readable.
func TestDirStoreSameSnapshotTwice(t *testing.T) {
	st, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := st.PutNode(sampleNode(2, 1)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, err := st.GetNode(2, 1); err != nil || !reflect.DeepEqual(got, sampleNode(2, 1)) {
		t.Fatalf("GetNode(2,1) = %+v, %v", got, err)
	}
}

// TestDecodeNodeAliasesInput pins the decoder's side of the ownership
// rule: page contents are sub-slices of the input, never copies, one
// buffer may be decoded any number of times, and appending to a decoded
// page cannot reach the bytes behind it.
func TestDecodeNodeAliasesInput(t *testing.T) {
	ns := sampleNode(4, 2)
	b := EncodeNode(ns)
	first, err := DecodeNode(b)
	if err != nil {
		t.Fatal(err)
	}
	second, err := DecodeNode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, ns) || !reflect.DeepEqual(second, ns) {
		t.Fatal("decoding one buffer twice gave different snapshots")
	}
	if !bytes.Equal(EncodeNode(first), b) {
		t.Error("re-encoding the decoded snapshot changed it")
	}
	// Only a test may do this: writing to the input shows through.
	for i := range b {
		b[i] ^= 0xFF
	}
	for i, p := range ns.Pages {
		for _, s := range []*NodeSnapshot{first, second} {
			d := s.Pages[i].Data
			if d[0] != p.Data[0]^0xFF || d[len(d)-1] != p.Data[len(d)-1]^0xFF {
				t.Fatalf("page %d was copied out of the input", i)
			}
			if cap(d) != len(d) {
				t.Fatalf("page %d has %d spare bytes of the input behind it", i, cap(d)-len(d))
			}
		}
	}
}

// TestEncodeNodeAllocatesOnce: the encoder sizes its buffer exactly —
// page headers and home versions included — so it never regrows.
func TestEncodeNodeAllocatesOnce(t *testing.T) {
	ns := &NodeSnapshot{Episode: 9, Node: 1, VT: []int32{3, 1, 4}}
	for i := 0; i < 300; i++ {
		ns.Pages = append(ns.Pages, PageImage{Page: int32(i), Data: make([]byte, 4096), HomeVT: []int32{1, 2, 3}})
	}
	var out []byte
	if n := testing.AllocsPerRun(20, func() { out = EncodeNode(ns) }); n != 1 {
		t.Errorf("EncodeNode allocates %v times, want 1", n)
	}
	if len(out) != cap(out) {
		t.Errorf("EncodeNode returned %d bytes in a buffer of %d", len(out), cap(out))
	}
	if got, err := DecodeNode(out); err != nil || !reflect.DeepEqual(got, ns) {
		t.Errorf("round trip: err %v", err)
	}
}

func TestDirStore(t *testing.T) {
	st, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	storeContract(t, st)
}

// TestDirStorePersistence checks a reopened DirStore still serves
// snapshots written by the previous instance — the property a restarted
// node's local restore depends on.
func TestDirStorePersistence(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutNode(sampleNode(8, 1)); err != nil {
		t.Fatal(err)
	}
	st2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st2.GetNode(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleNode(8, 1)) {
		t.Error("reopened snapshot mismatch")
	}
}
