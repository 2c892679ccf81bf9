package live

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/harness"
	"lrcdsm/internal/live/node"
	ckpt "lrcdsm/internal/live/recover"
	"lrcdsm/internal/live/transport"
)

// amnesiacStore takes checkpoints like the store it wraps but cannot
// read any back: a disk that died between the checkpoint and the
// recovery that needs it.
type amnesiacStore struct{ ckpt.Store }

func (amnesiacStore) GetNode(int64, int) (*ckpt.NodeSnapshot, error) { return nil, ckpt.ErrNotFound }

// noRejoinNet cannot rebuild a crashed node's transport.
type noRejoinNet struct{ transport.Network }

func (noRejoinNet) Rejoin(int) (transport.Transport, error) {
	return nil, errors.New("no spare transport")
}

// TestSupervisedExits is the error taxonomy over the crash rows: a
// supervised run ends in nil or in a *node.PeerDownError naming the
// node the cluster could not bring back, never in a bare internal
// error. Most rows kill node 2 of a 4-node jacobi at its third release
// (so a stable checkpoint exists) and break one step of its recovery;
// without a restart budget the first kill ends the run naming its
// victim, even when it takes node 0, the liveness judge. An option pair
// that cannot work is refused before any worker runs.
func TestSupervisedExits(t *testing.T) {
	forgets := func(i int) []ckpt.Store {
		stores := make([]ckpt.Store, 4)
		for j := range stores {
			stores[j] = ckpt.NewMemStore()
		}
		stores[i] = amnesiacStore{stores[i]}
		return stores
	}
	kill := []Crash{{Node: 2, At: AtRelease, N: 3}}
	cases := []struct {
		name    string
		opts    RecoverOptions
		net     func() transport.Network
		down    int  // node the PeerDownError names; -1: the run succeeds
		refused bool // refused before the run
	}{
		{name: "recovered", opts: RecoverOptions{MaxRestarts: 1, Crashes: kill}, down: -1},
		{name: "rejoin-fails", opts: RecoverOptions{MaxRestarts: 1, Crashes: kill, Stores: forgets(2)}, down: 2},
		{name: "transport-rebuild-fails", opts: RecoverOptions{MaxRestarts: 1, Crashes: kill},
			net: func() transport.Network { return noRejoinNet{transport.NewInprocNet(4)} }, down: 2},
		{name: "survivor-lost-checkpoint", opts: RecoverOptions{MaxRestarts: 1, Crashes: kill, Stores: forgets(1)}, down: 1},
		{name: "no-budget-judge-killed", opts: RecoverOptions{Crashes: []Crash{{Node: 0, At: AtRelease, N: 2}}}, down: 0},
		{name: "lost-store-without-replica", opts: RecoverOptions{MaxRestarts: 1, Crashes: kill, LoseStore: true}, refused: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			app, err := harness.NewApp("jacobi", harness.ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			cfg := chaosConfig(4, core.LH, nil)
			cfg.Net = transport.NewInprocNet(4)
			// Bounds any wait a broken recovery step leaves behind.
			cfg.RPCTimeout = 2 * time.Second
			if tc.net != nil {
				cfg.Net = tc.net()
			}
			cl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			app.Configure(cl)
			var ran atomic.Bool
			st, err := cl.RunSupervised(func(w core.Worker) { ran.Store(true); app.Worker(w) }, tc.opts)
			var pd *node.PeerDownError
			switch {
			case tc.refused:
				if err == nil || errors.As(err, &pd) || ran.Load() {
					t.Fatalf("want a refusal before any worker runs, got %T (ran %v): %v", err, ran.Load(), err)
				}
			case tc.down < 0:
				if err != nil || st.Restarts != 1 {
					t.Fatalf("want a recovered run with 1 restart, got %v", err)
				}
			case !errors.As(err, &pd) || reflect.TypeOf(err) != reflect.TypeOf(pd):
				t.Fatalf("want a *node.PeerDownError, got %T: %v", err, err)
			case pd.Node != tc.down:
				t.Fatalf("abort names node %d, want %d: %v", pd.Node, tc.down, err)
			}
		})
	}
}

// TestRefusedRunIsUndone: a RunSupervised call refused for its inputs
// changes nothing. Once the cluster has shared memory it still runs,
// and without the refused call's kill schedule.
func TestRefusedRunIsUndone(t *testing.T) {
	c, err := New(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	kill := RecoverOptions{Crashes: []Crash{{Node: 1, At: AtRelease, N: 1}}}
	if _, err := c.RunSupervised(func(core.Worker) {}, kill); err == nil {
		t.Fatal("run without shared memory accepted")
	}
	a := c.Alloc(8)
	lk := c.NewLock()
	if _, err := c.Run(func(w core.Worker) {
		w.Lock(lk)
		w.WriteU64(a, w.ReadU64(a)+1)
		w.Unlock(lk)
	}); err != nil {
		t.Fatalf("run after a refused one: %v", err)
	}
	if got := c.PeekU64(a); got != 2 {
		t.Fatalf("counter = %d, want 2", got)
	}
}

// TestScheduleArmsOnRejoin: an entry counts only its own kind (and,
// for releases, its own victim), fires once at N, and the next entry
// counts nothing until the previous victim has rejoined.
func TestScheduleArmsOnRejoin(t *testing.T) {
	var killed []int
	s := &schedule{
		crashes: []Crash{{Node: 1, At: AtRelease, N: 2}, {Node: 0, At: AtFault, N: 2}},
		kill:    func(v int, _ time.Duration) { killed = append(killed, v) },
		armed:   true,
	}
	s.IntervalClosed(0, 1, nil, nil) // another node's release
	s.PageFault(1, 0)                // another kind
	s.IntervalClosed(1, 1, nil, nil)
	s.IntervalClosed(1, 2, nil, nil)
	s.PageFault(2, 0) // inside the recovery: not counted
	s.PageFault(2, 0)
	if !reflect.DeepEqual(killed, []int{1}) {
		t.Fatalf("before the rejoin, killed %v; want [1]", killed)
	}
	s.rejoined()
	s.PageFault(2, 0) // any node's fault counts
	s.PageFault(3, 0)
	s.IntervalClosed(1, 3, nil, nil)
	if !reflect.DeepEqual(killed, []int{1, 0}) {
		t.Fatalf("after the rejoin, killed %v; want [1 0]", killed)
	}
}

// TestParseCrashes pins the -crash grammar dsmd and dsmserve share.
func TestParseCrashes(t *testing.T) {
	got, err := ParseCrashes("2:3:5ms,0:40")
	want := []Crash{
		{Node: 2, At: AtRelease, N: 3, RestartAfter: 5 * time.Millisecond},
		{Node: 0, At: AtRelease, N: 40},
	}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseCrashes = %+v, %v; want %+v", got, err, want)
	}
	for _, bad := range []string{"", "2", "2:0", "-1:3", "2:x", "2:3:soon", "2:3:5ms:9"} {
		if c, err := ParseCrashes(bad); err == nil {
			t.Errorf("ParseCrashes(%q) = %+v, want an error", bad, c)
		}
	}
}
