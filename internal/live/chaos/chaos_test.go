package chaos

import (
	"testing"
	"time"

	"lrcdsm/internal/live/transport"
)

// pairOf builds a wrapped 2-node in-process network.
func pairOf(t *testing.T, cfg Config) []*Transport {
	t.Helper()
	ts := WrapAll(transport.NewInprocNetwork(2), cfg)
	t.Cleanup(func() {
		for _, tr := range ts {
			tr.Close()
		}
	})
	return ts
}

// TestDropIsSeededAndSilent checks that drops are injected at roughly
// the configured rate, report success, and replay identically for one
// seed.
func TestDropIsSeededAndSilent(t *testing.T) {
	const sends = 1000
	run := func() (delivered int, dropped int64) {
		ts := pairOf(t, Config{Seed: 7, DropP: 0.3})
		for i := 0; i < sends; i++ {
			if err := ts[0].Send(1, []byte{byte(i)}); err != nil {
				t.Fatalf("chaos send errored: %v", err)
			}
		}
		return sends - int(ts[0].Counters().Dropped), ts[0].Counters().Dropped
	}
	d1, c1 := run()
	d2, c2 := run()
	if c1 != c2 || d1 != d2 {
		t.Fatalf("same seed, different schedules: %d/%d vs %d/%d dropped", c1, sends, c2, sends)
	}
	if c1 < sends/5 || c1 > sends/2 {
		t.Fatalf("drop count %d wildly off a 30%% rate over %d sends", c1, sends)
	}
	// Every non-dropped frame must be receivable.
	ts := pairOf(t, Config{Seed: 7, DropP: 0.3})
	for i := 0; i < sends; i++ {
		ts[0].Send(1, []byte{byte(i)})
	}
	kept := sends - int(ts[0].Counters().Dropped)
	for i := 0; i < kept; i++ {
		if _, err := ts[1].Recv(); err != nil {
			t.Fatalf("recv %d/%d: %v", i, kept, err)
		}
	}
}

// TestDuplicateDelivers checks that duplicated frames really arrive
// twice at the inner transport's receiver.
func TestDuplicateDelivers(t *testing.T) {
	ts := pairOf(t, Config{Seed: 3, DupP: 1.0})
	if err := ts[0].Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		f, err := ts[1].Recv()
		if err != nil || string(f.Payload) != "x" {
			t.Fatalf("copy %d: %v %q", i, err, f.Payload)
		}
	}
	if got := ts[0].Counters().Duplicated; got != 1 {
		t.Fatalf("Duplicated = %d, want 1", got)
	}
}

// TestDelayedFrameStillArrives checks delay injection: the frame is held
// but not lost.
func TestDelayedFrameStillArrives(t *testing.T) {
	ts := pairOf(t, Config{Seed: 5, DelayP: 1.0, DelayMax: 5 * time.Millisecond})
	t0 := time.Now()
	if err := ts[0].Send(1, []byte("late")); err != nil {
		t.Fatal(err)
	}
	f, err := ts[1].Recv()
	if err != nil || string(f.Payload) != "late" {
		t.Fatalf("recv: %v %q", err, f.Payload)
	}
	if time.Since(t0) > time.Second {
		t.Fatal("delay far beyond DelayMax")
	}
	if got := ts[0].Counters().Delayed; got != 1 {
		t.Fatalf("Delayed = %d, want 1", got)
	}
}

// TestPartitionWindow checks that a partition drops frames only between
// the named pair and only inside its window.
func TestPartitionWindow(t *testing.T) {
	ts := WrapAll(transport.NewInprocNetwork(3),
		Config{Partitions: []Partition{{A: 0, B: 1, From: 0, Dur: 50 * time.Millisecond}}})
	defer func() {
		for _, tr := range ts {
			tr.Close()
		}
	}()
	// Inside the window: 0<->1 dead both directions, 0<->2 alive.
	ts[0].Send(1, []byte("cut"))
	ts[1].Send(0, []byte("cut"))
	if err := ts[0].Send(2, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if f, err := ts[2].Recv(); err != nil || string(f.Payload) != "ok" {
		t.Fatalf("unpartitioned pair affected: %v %q", err, f.Payload)
	}
	if got := ts[0].Counters().Partitioned + ts[1].Counters().Partitioned; got != 2 {
		t.Fatalf("Partitioned = %d, want 2", got)
	}
	// After the window closes the pair heals.
	time.Sleep(60 * time.Millisecond)
	if err := ts[0].Send(1, []byte("healed")); err != nil {
		t.Fatal(err)
	}
	if f, err := ts[1].Recv(); err != nil || string(f.Payload) != "healed" {
		t.Fatalf("partition did not heal: %v %q", err, f.Payload)
	}
}

// TestResetExercisesReconnect checks reset injection against the real
// TCP transport: the frame after a forced reset must still be delivered
// exactly once via re-dial.
func TestResetExercisesReconnect(t *testing.T) {
	inner, err := transport.NewTCPLoopback(2, transport.TCPOptions{
		DialBackoff:  time.Millisecond,
		DialAttempts: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := WrapAll(inner, Config{Seed: 11, ResetP: 1.0})
	defer func() {
		for _, tr := range ts {
			tr.Close()
		}
	}()
	for i := byte(0); i < 5; i++ {
		if err := ts[0].Send(1, []byte{i}); err != nil {
			t.Fatalf("send %d through forced resets: %v", i, err)
		}
		f, err := ts[1].Recv()
		if err != nil || len(f.Payload) != 1 || f.Payload[0] != i {
			t.Fatalf("recv %d: %v %v", i, err, f.Payload)
		}
	}
	if got := ts[0].Counters().Resets; got == 0 {
		t.Fatal("no resets counted with ResetP=1 over TCP")
	}
}

// TestNetRejoinKeepsSchedule checks the Network wrapper: a rejoined
// incarnation stays fault-injected under the same schedule, and the
// fault counters accumulate across incarnations.
func TestNetRejoinKeepsSchedule(t *testing.T) {
	nw := WrapNet(transport.NewInprocNet(2), Config{Seed: 9, DupP: 1})
	t.Cleanup(func() { nw.Close() })
	for i := 0; i < 3; i++ {
		if err := nw.Transports()[0].Send(1, nil); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := nw.Rejoin(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.(*Transport); !ok {
		t.Fatalf("rejoined transport is %T, not chaos-wrapped", fresh)
	}
	for i := 0; i < 2; i++ {
		if err := fresh.Send(0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := nw.Counters().Duplicated; n != 5 {
		t.Fatalf("Duplicated across incarnations = %d, want 5", n)
	}
	nw.Rejoin(1)
	if n := nw.Counters().Duplicated; n != 5 {
		t.Fatalf("Duplicated after retiring an incarnation = %d, want 5", n)
	}
}
