package serve

import (
	"runtime"
	"testing"
)

// cadenceWorker is a fakeWorker whose engine checkpoints at every
// every'th barrier. Entering a barrier, it records how many executed ops
// still wait for their acknowledgment.
type cadenceWorker struct {
	*fakeWorker
	s       *Server
	every   int64
	pending []int
}

func (w *cadenceWorker) Replaying() bool        { return false }
func (w *cadenceWorker) CheckpointEvery() int64 { return w.every }
func (w *cadenceWorker) Barrier(int)            { w.pending = append(w.pending, len(w.s.pending[0])) }

// TestDurableAcksAtTheEngineCadence: the durable loop acknowledges an op
// against the checkpoint cadence its engine reports. An op executed in
// the first episode is first covered by the checkpoint of crossing
// every, which every node has confirmed once it departs crossing
// every+1: the op is pending at the first every+1 barrier entries and
// acknowledged by the next.
func TestDurableAcksAtTheEngineCadence(t *testing.T) {
	for _, every := range []int64{1, 2, 3} {
		s := fakeServer(t, Config{Keys: 1 << 10, KeysPerPage: 64, Shards: 16, Durable: true})
		w := &cadenceWorker{fakeWorker: newFakeWorker(s), s: s, every: every}
		acked := make(chan error, 1)
		go func() {
			_, err := s.Do(false, 1, 0) // a get: the fake store aliases the stop word
			acked <- err
		}()
		for len(s.queues[0][0]) == 0 {
			runtime.Gosched() // the op is queued before the first episode
		}
		done := runWorker(s, w)
		if err := <-acked; err != nil {
			t.Fatalf("every %d: %v", every, err)
		}
		s.Shutdown()
		if p := <-done; p != nil {
			t.Fatalf("every %d: worker panicked: %v", every, p)
		}
		if len(w.pending) < int(every)+2 {
			t.Fatalf("every %d: only %d barriers crossed", every, len(w.pending))
		}
		for i, p := range w.pending[:every+2] {
			if want := 1 - i/int(every+1); p != want {
				t.Errorf("every %d: %d ops pending at barrier %d, want %d (all: %v)", every, p, i+1, want, w.pending)
			}
		}
	}
}
