package live

import (
	"runtime"
	"testing"

	"lrcdsm/internal/apps/jacobi"
	"lrcdsm/internal/core"
	"lrcdsm/internal/live/transport"
)

// TestCheckpointFootprint bounds what checkpointing allocates. A
// supervised 3-node jacobi runs twice, with a replicated checkpoint at
// every barrier and with none; the difference in bytes allocated is
// bounded at twice the bytes checkpointed. The structural cost is 1.23:
// the changed pages' images (half of jacobi's snapshot, 0.5) and, on the
// two nodes of three that push (2/3), a page frame encoded for each
// changed page (0.5, in a 4 864-byte size class: 0.59) and decoded by
// the leader into the replica's image (0.5); 1.45-1.50 is measured, and
// the rest of the bound is room for allocations that depend on the
// scheduler and on retries. Pushing the whole encoded snapshot in 32 KiB
// chunks it was 4.5 (3.5 measured: the encoding, the chunk frames, their
// payloads and the assembly, for every page); before snapshots were
// immutable it was twelve times (two store clones, two regrowing
// encoders, the regrowing assembly, the decoder's copy, and the leader's
// push to itself).
func TestCheckpointFootprint(t *testing.T) {
	run := func(every int64) (alloc, ckpts, bytes int64) {
		// 350 KB a node, 85 pages: enough that one seal per checkpoint
		// does not weigh on the ratio.
		app := jacobi.New(jacobi.Params{N: 256, Iters: 10, PointCycles: 10})
		cfg := chaosConfig(3, core.LH, nil)
		cfg.Net = transport.NewInprocNet(3)
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		app.Configure(cl)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stats, err := cl.RunSupervised(func(w core.Worker) { app.Worker(w) },
			RecoverOptions{MaxRestarts: 1, CheckpointEvery: every, Replicate: true})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Verify(cl); err != nil {
			t.Fatal(err)
		}
		return int64(after.TotalAlloc - before.TotalAlloc), stats.Total.CheckpointsTaken, stats.Total.CheckpointBytes
	}
	base, none, _ := run(1 << 40) // no barrier episode is divisible by it
	if none != 0 {
		t.Fatalf("the baseline run took %d checkpoints", none)
	}
	alloc, ckpts, bytes := run(1)
	if ckpts == 0 || bytes == 0 {
		t.Fatalf("the run took %d checkpoints of %d bytes", ckpts, bytes)
	}
	extra := alloc - base
	t.Logf("%d checkpoints of %d bytes each cost %d allocated bytes each (%.2fx)",
		ckpts, bytes/ckpts, extra/ckpts, float64(extra)/float64(bytes))
	if extra > 2*bytes {
		t.Errorf("checkpointing %d bytes allocated %d (%.2fx, want <= 2x)", bytes, extra, float64(extra)/float64(bytes))
	}
}
