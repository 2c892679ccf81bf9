// Fixture for the lockheld analyzer: channel operations, blocking
// selects, time.Sleep, transport sends, RPC waits and condition waits
// under a held mutex are flagged; the release-then-send discipline,
// nonblocking selects, goroutine bodies, and the canonical Cond.Wait
// loop are not.
package lockheld

import (
	"sync"
	"time"
)

// conn stands in for the live transport; lockheld recognizes its
// Send/Recv methods by name, like poolsafe recognizes FreeTwin.
type conn struct{}

func (c *conn) Send(b []byte) error { return nil }
func (c *conn) Recv() []byte        { return nil }

// node stands in for the live node; its RPC retransmission loop is
// recognized by name.
type node struct{}

func (n *node) rpcTry(to int, wait time.Duration) ([]byte, bool) { return nil, false }

func badSendUnderLock(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	ch <- 1 // want "channel send while mu is held"
	mu.Unlock()
}

func badRecvUnderDeferredUnlock(mu *sync.Mutex, ch chan int) int {
	mu.Lock()
	defer mu.Unlock()
	return <-ch // want "channel receive while mu is held"
}

func badSelectUnderLock(mu *sync.Mutex, a, b chan int) {
	mu.Lock()
	select { // want "select without default while mu is held"
	case <-a:
	case <-b:
	}
	mu.Unlock()
}

func badSleepUnderRLock(mu *sync.RWMutex, n *int) {
	mu.RLock()
	time.Sleep(time.Millisecond) // want "time.Sleep while mu is held"
	_ = *n
	mu.RUnlock()
}

func badTransportSendUnderLock(c *conn, mu *sync.Mutex) {
	mu.Lock()
	c.Send(nil) // want "transport send Send while mu is held"
	mu.Unlock()
}

func badRPCWaitUnderLock(n *node, mu *sync.Mutex) {
	mu.Lock()
	n.rpcTry(1, time.Second) // want "RPC reply wait rpcTry while mu is held"
	mu.Unlock()
}

func badCondWaitOutsideLoop(mu *sync.Mutex, cond *sync.Cond) {
	mu.Lock()
	cond.Wait() // want "sync.Cond.Wait outside a for loop while mu is held"
	mu.Unlock()
}

func goodReleaseThenSend(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	v := 1
	mu.Unlock()
	ch <- v
}

func goodSelectWithDefault(mu *sync.Mutex, a chan int) {
	mu.Lock()
	defer mu.Unlock()
	select {
	case <-a:
	default:
	}
}

func goodCondWaitInLoop(mu *sync.Mutex, cond *sync.Cond, ready func() bool) {
	mu.Lock()
	for !ready() {
		cond.Wait()
	}
	mu.Unlock()
}

func goodGoroutineSends(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	go func() { ch <- 1 }()
	mu.Unlock()
}

func goodBranchLocalUnlock(mu *sync.Mutex, ch chan int, urgent bool) {
	mu.Lock()
	if urgent {
		mu.Unlock()
		ch <- 1
		return
	}
	mu.Unlock()
	ch <- 2
}

func goodAnnotatedHold(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	ch <- 1 //dsmlint:ignore lockheld the receiver never takes this mutex and the buffer is sized for the send
	mu.Unlock()
}
