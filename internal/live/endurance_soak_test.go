package live

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/harness"
	"lrcdsm/internal/live/consensus"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/live/wire"
	"lrcdsm/internal/page"
	"lrcdsm/internal/vc"
)

// enduranceMaxSlot bounds the sampled durable consensus slot of a
// 4-node cluster, in bytes: term, vote, slot term and version (28), the
// state's length (4), four voters (4 + 16), the manager image's length
// and the image (4 + 48), and the checksum (4). The slot holds one state
// image, so it never grows with the run.
const enduranceMaxSlot = 28 + 4 + (4 + 4*4) + 4 + (4 + 9*4 + 8) + 4

// enduranceEpisodes reads the cumulative barrier-episode target
// (cluster-wide, summed over nodes and rounds) from
// DSM_ENDURANCE_EPISODES, defaulting to 2000.
func enduranceEpisodes(t *testing.T) int64 {
	if s := os.Getenv("DSM_ENDURANCE_EPISODES"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil || n <= 0 {
			t.Fatalf("bad DSM_ENDURANCE_EPISODES %q: %v", s, err)
		}
		return n
	}
	return 2000
}

// slotSampler polls every replica's durable slot and records the
// largest one it ever observes, in bytes, concurrently with the run.
type slotSampler struct {
	stables []*consensus.Stable
	stop    chan struct{}
	done    chan int
}

func sampleSlots(stables []*consensus.Stable) *slotSampler {
	s := &slotSampler{stables: stables, stop: make(chan struct{}), done: make(chan int, 1)}
	go func() {
		largest := 0
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				for _, st := range s.stables {
					largest = max(largest, st.Size())
				}
			case <-s.stop:
				s.done <- largest
				return
			}
		}
	}()
	return s
}

func (s *slotSampler) largest() int {
	close(s.stop)
	return <-s.done
}

// slotTearer tears a durable consensus slot the way a torn write would,
// once, at the first vote request any replica sends. Node 0 leads from
// bootstrap, so the first election means it is down, and the survivors
// must elect its successor before the supervisor can restart it: the
// restarted incarnation loads the torn slot. It takes every other
// event and ignores it.
type slotTearer struct {
	slot *consensus.Stable
	once sync.Once
}

func (*slotTearer) TwinCreated(int, page.ID)                    {}
func (*slotTearer) IntervalClosed(int, int32, vc.VC, []page.ID) {}
func (*slotTearer) EagerFlushed(int, int32, []page.ID)          {}
func (*slotTearer) ClockAdvanced(int, vc.VC)                    {}
func (*slotTearer) DiffApplied(int, page.ID, int, int32, vc.VC) {}
func (*slotTearer) CopyAdopted(int, page.ID, []int32, vc.VC)    {}
func (*slotTearer) BarrierDeparted(int, int64, vc.VC)           {}
func (*slotTearer) PageFault(int, page.ID)                      {}

func (s *slotTearer) MsgSent(_, _ int, kind wire.Kind, _ int) {
	if kind == wire.KVoteReq {
		s.once.Do(func() { s.slot.Corrupt() })
	}
}

// TestEndurance is the long-haul claim: the replicated control plane
// survives an unbounded sequence of runs — every round kills the
// coordinator at least once — without the durable slots or the heap
// growing with time. Rounds rotate through all four
// paper workloads and both protocols; every fourth round grows the
// voting set from three to four mid-run, and every fourth round
// corrupts the coordinator's durable slot while it is down, so the
// restarted incarnation must quarantine the slot and be re-seeded by
// accepting the leader's slot. Each round's results are checked
// byte-for-byte against a fault-free 1-node reference.
//
// The soak is opt-in (DSM_ENDURANCE=1): it runs until the cluster-wide
// barrier-episode count crosses DSM_ENDURANCE_EPISODES (default 2000),
// minutes of wall clock. `make endurance` wraps it with a race detector
// and a CI-sized episode budget.
func TestEndurance(t *testing.T) {
	if os.Getenv("DSM_ENDURANCE") == "" {
		t.Skip("set DSM_ENDURANCE=1 to run the long-haul soak")
	}
	target := enduranceEpisodes(t)

	var (
		episodes    int64
		quarantines int64
		confChanges int64
		reseeds     int64
	)
	// At least four rounds always run, so the membership and corruption
	// variants fire even under a tiny CI episode budget.
	for round := 0; episodes < target || round < 4; round++ {
		name := harness.AppNames[round%len(harness.AppNames)]
		prot := core.LI
		if round%2 == 1 {
			prot = core.LH
		}
		// Membership rounds ride cholesky (the longest run, latest kill):
		// the promotion must commit well before the coordinator dies.
		// Corruption rounds ride water; the quarantined replica votes
		// for no one until it accepts the leader's slot.
		membership := round%4 == 3 // grow the voting set 3 -> 4 mid-run
		corrupt := round%4 == 2    // corrupt the coordinator's slot while it is down

		stables := make([]*consensus.Stable, 4)
		for i := range stables {
			stables[i] = consensus.NewStable()
		}
		opts := RecoverOptions{
			MaxRestarts:     4,
			CheckpointEvery: 1,
			Replicate:       true,
			Seed:            int64(1000 + round),
			Stables:         stables,
			Crashes:         []Crash{coordinatorKill[name]},
		}
		if membership {
			opts.Voters = 3
			opts.AddReplicas = []ReplicaAdd{{Node: 3, After: 5 * time.Millisecond}}
		}
		app, err := harness.NewApp(name, harness.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		cfg := failoverConfig(4, prot)
		cfg.Net = transport.NewInprocNet(4)
		if corrupt {
			cfg.Observer = &slotTearer{slot: stables[0]}
		}
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		app.Configure(cl)

		sampler := sampleSlots(stables)
		stats, runErr := cl.RunSupervised(func(w core.Worker) { app.Worker(w) }, opts)
		maxSlot := sampler.largest()

		tag := fmt.Sprintf("round %d (%s/%v membership=%v corrupt=%v)", round, name, prot, membership, corrupt)
		if runErr != nil {
			t.Fatalf("%s: %v", tag, runErr)
		}
		if err := app.Verify(cl); err != nil {
			t.Fatalf("%s: verification: %v", tag, err)
		}
		if stats.Restarts != 1 {
			t.Fatalf("%s: %d restarts, want 1 (the scheduled coordinator kill)", tag, stats.Restarts)
		}
		if maxSlot > enduranceMaxSlot {
			t.Fatalf("%s: a durable consensus slot reached %d bytes, bound is %d", tag, maxSlot, enduranceMaxSlot)
		}
		for i, st := range stables {
			if st.Version() == 0 {
				t.Errorf("%s: replica %d never held a leader's slot", tag, i)
			}
		}
		if membership && stats.Total.ConsensusConfChanges == 0 {
			t.Errorf("%s: membership round committed no config change", tag)
		}
		if corrupt {
			if stats.Total.ConsensusSlotQuarantines == 0 {
				t.Errorf("%s: corrupted slot was not quarantined", tag)
			}
			// The quarantine emptied the slot (version 0), and a fenced
			// replica makes no version of its own: a version now is a
			// leader's slot it accepted.
			if stables[0].Quarantines() == 0 || stables[0].Version() == 0 {
				t.Errorf("%s: quarantined slot was not re-seeded (quarantines %d, version %d)",
					tag, stables[0].Quarantines(), stables[0].Version())
			} else {
				reseeds++
			}
		}
		compareToReference(t, name, prot, cl)

		episodes += stats.Total.BarrierEpisodes
		quarantines += stats.Total.ConsensusSlotQuarantines
		confChanges += stats.Total.ConsensusConfChanges

		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		t.Logf("%s: episodes %d/%d, max slot %d B, heap %d KiB, commits %d",
			tag, episodes, target, maxSlot, ms.HeapAlloc>>10, stats.Total.ConsensusCommits)
		// The heap after GC must stay flat across rounds; a control
		// plane that leaks states trips this
		// long before an operator would notice.
		if ms.HeapAlloc > 512<<20 {
			t.Fatalf("%s: heap grew to %d MiB — the control plane is leaking", tag, ms.HeapAlloc>>20)
		}
	}
	t.Logf("endurance done: %d episodes, %d conf changes, %d quarantines, %d re-seeds",
		episodes, confChanges, quarantines, reseeds)
	if quarantines == 0 || confChanges == 0 || reseeds == 0 {
		t.Errorf("soak exercised too little: quarantines=%d confChanges=%d reseeds=%d",
			quarantines, confChanges, reseeds)
	}
}
