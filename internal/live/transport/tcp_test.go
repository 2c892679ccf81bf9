package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func fastOpts() TCPOptions {
	return TCPOptions{
		DialTimeout:    time.Second,
		DialBackoff:    time.Millisecond,
		DialMaxBackoff: 20 * time.Millisecond,
		DialAttempts:   10,
		WriteTimeout:   2 * time.Second,
	}
}

func closeAll(ts []Transport) {
	for _, t := range ts {
		t.Close()
	}
}

func TestTCPDelivery(t *testing.T) {
	ts, err := NewTCPLoopback(3, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)
	for i := 0; i < 10; i++ {
		if err := ts[1].Send(2, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		f, err := ts[2].Recv()
		if err != nil {
			t.Fatal(err)
		}
		if f.From != 1 || string(f.Payload) != fmt.Sprintf("m%d", i) {
			t.Fatalf("frame %d: %+v", i, f)
		}
	}
}

// TestTCPDialRetry injects dial failures for the first attempts and
// requires Send to succeed via retry with backoff.
func TestTCPDialRetry(t *testing.T) {
	var fails atomic.Int32
	fails.Store(3)
	opts := fastOpts()
	opts.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		if fails.Add(-1) >= 0 {
			return nil, errors.New("injected dial failure")
		}
		return net.DialTimeout("tcp", addr, timeout)
	}
	ts, err := NewTCPLoopback(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)
	if err := ts[0].Send(1, []byte("after retries")); err != nil {
		t.Fatalf("send did not survive injected dial failures: %v", err)
	}
	f, err := ts[1].Recv()
	if err != nil || string(f.Payload) != "after retries" {
		t.Fatalf("recv: %v %+v", err, f)
	}
	if fails.Load() >= 0 {
		t.Fatalf("dial func not exercised enough: %d", fails.Load())
	}
}

// TestTCPDialGivesUp bounds the retry loop: with every dial failing the
// error must surface after DialAttempts.
func TestTCPDialGivesUp(t *testing.T) {
	opts := fastOpts()
	opts.DialAttempts = 3
	var attempts atomic.Int32
	opts.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		attempts.Add(1)
		return nil, errors.New("permanent failure")
	}
	ts, err := NewTCPLoopback(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)
	if err := ts[0].Send(1, []byte("x")); err == nil {
		t.Fatal("send succeeded with all dials failing")
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("dial attempts = %d, want 3", got)
	}
}

// TestTCPReconnectAfterDrop kills the established connection mid-run and
// requires the next Send to re-dial and deliver.
func TestTCPReconnectAfterDrop(t *testing.T) {
	// Track live outbound conns so the test can sever them.
	var mu sync.Mutex
	var conns []net.Conn
	opts := fastOpts()
	opts.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
		return c, err
	}
	ts, err := NewTCPLoopback(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)

	if err := ts[0].Send(1, []byte("before")); err != nil {
		t.Fatal(err)
	}
	if f, err := ts[1].Recv(); err != nil || string(f.Payload) != "before" {
		t.Fatalf("recv before drop: %v %+v", err, f)
	}

	// Sever the established connection under the transport.
	mu.Lock()
	for _, c := range conns {
		c.Close()
	}
	mu.Unlock()

	// The next sends must transparently reconnect. The first write may
	// "succeed" into a dead socket before the OS reports the reset, so
	// send a few frames until one arrives.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		if err := ts[0].Send(1, []byte(fmt.Sprintf("after%d", i))); err != nil {
			t.Fatalf("send after drop: %v", err)
		}
		f, err := ts[1].Recv()
		if err != nil {
			t.Fatalf("recv after drop: %v", err)
		}
		if string(f.Payload) == fmt.Sprintf("after%d", i) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reconnect did not deliver within deadline")
		}
	}
}

// TestTCPManyConcurrentSenders stresses per-pair ordering across real
// sockets under -race.
func TestTCPManyConcurrentSenders(t *testing.T) {
	const n, msgs = 3, 100
	ts, err := NewTCPLoopback(n, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)
	var wg sync.WaitGroup
	for s := 1; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				if err := ts[s].Send(0, []byte(fmt.Sprintf("%d:%d", s, i))); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	next := make([]int, n)
	for got := 0; got < (n-1)*msgs; got++ {
		f, err := ts[0].Recv()
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%d:%d", f.From, next[f.From])
		if string(f.Payload) != want {
			t.Fatalf("out of order from %d: got %q want %q", f.From, f.Payload, want)
		}
		next[f.From]++
	}
	wg.Wait()
}

// stallConn wraps a connection so one designated Write emits only half
// of a frame's length header and then stalls past the write deadline,
// simulating a network that wedges mid-frame.
type stallConn struct {
	net.Conn
	armed *atomic.Bool
	stall time.Duration
}

func (c *stallConn) Write(b []byte) (int, error) {
	if c.armed.CompareAndSwap(true, false) && len(b) > 2 {
		n, err := c.Conn.Write(b[:2]) // partial header reaches the wire
		if err != nil {
			return n, err
		}
		time.Sleep(c.stall) // ride past the write deadline
		m, err := c.Conn.Write(b[2:])
		return n + m, err // deadline-exceeded from the real conn
	}
	return c.Conn.Write(b)
}

// TestTCPWriteDeadlineMidFrame expires the write deadline with half a
// frame on the wire: Send must tear the connection down, re-dial and
// retransmit, and the receiver must deliver the frame exactly once:
// the partial frame on the old connection is discarded, so the resend
// is its only copy.
func TestTCPWriteDeadlineMidFrame(t *testing.T) {
	var armed atomic.Bool
	opts := fastOpts()
	opts.WriteTimeout = 50 * time.Millisecond
	opts.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return &stallConn{Conn: c, armed: &armed, stall: 200 * time.Millisecond}, nil
	}
	ts, err := NewTCPLoopback(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)

	if err := ts[0].Send(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	if err := ts[0].Send(1, []byte("b")); err != nil {
		t.Fatalf("send across a mid-frame deadline expiry: %v", err)
	}
	if err := ts[0].Send(1, []byte("c")); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"a", "b", "c"} {
		f, err := ts[1].Recv()
		if err != nil || string(f.Payload) != want {
			t.Fatalf("want %q exactly once, got %q (err %v)", want, f.Payload, err)
		}
	}
	// No stray duplicate of "b" behind "c".
	select {
	case f := <-func() chan Frame {
		ch := make(chan Frame, 1)
		go func() {
			if fr, err := ts[1].Recv(); err == nil {
				ch <- fr
			}
		}()
		return ch
	}():
		t.Fatalf("unexpected extra frame %q after retransmission", f.Payload)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestTCPRawPeerFraming plays a raw peer that speaks the wire layout by
// hand: a 4-byte hello naming node 0, then frames of a 4-byte big-endian
// length and the payload. A frame repeated on a second connection is
// delivered again: the transport keeps no delivery state, and the engine
// above it absorbs repeats (DESIGN.md §10.2).
func TestTCPRawPeerFraming(t *testing.T) {
	ts, err := NewTCPLoopback(2, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ts)
	addr := ts[1].(*TCP).Addr()

	frame := func(payload string) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	}
	dial := func() net.Conn {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		var hello [4]byte // node 0
		if _, err := c.Write(hello[:]); err != nil {
			t.Fatal(err)
		}
		return c
	}
	frames := make(chan Frame, 4)
	go func() {
		for {
			f, err := ts[1].Recv()
			if err != nil {
				return
			}
			frames <- f
		}
	}()
	expect := func(want ...string) {
		t.Helper()
		for _, w := range want {
			select {
			case f := <-frames:
				if f.From != 0 || string(f.Payload) != w {
					t.Fatalf("want %q from 0, got %q from %d", w, f.Payload, f.From)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("no frame %q within 5s", w)
			}
		}
	}

	c1 := dial()
	c1.Write(append(frame("a"), frame("b")...))
	expect("a", "b")
	c1.Close()

	// A sender that cannot know how much of its tail was delivered
	// repeats it on its next connection.
	c2 := dial()
	defer c2.Close()
	c2.Write(append(frame("b"), frame("c")...))
	expect("b", "c")
}

func TestTCPClose(t *testing.T) {
	ts, err := NewTCPLoopback(2, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	ts[0].Close()
	ts[1].Close()
	if _, err := ts[0].Recv(); err != ErrClosed {
		t.Fatalf("Recv after close: %v", err)
	}
}

// TestTCPNetRejoin crashes a node and rebuilds it on the same address:
// the fresh incarnation's frames reach a peer that still holds an
// inbound connection from the old one, and a peer's traffic toward it
// re-dials the rebound listener.
func TestTCPNetRejoin(t *testing.T) {
	nw, err := NewTCPLoopbackNet(3, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	ts := nw.Transports()

	// Give node 0 an inbound connection from the old incarnation.
	for i := 0; i < 5; i++ {
		if err := ts[1].Send(0, []byte(fmt.Sprintf("pre%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if f, err := ts[0].Recv(); err != nil || string(f.Payload) != fmt.Sprintf("pre%d", i) {
			t.Fatalf("warm-up recv %d: %q err %v", i, f.Payload, err)
		}
	}
	oldAddr := ts[1].(*TCP).Addr()

	fresh, err := nw.Rejoin(1)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Self() != 1 || fresh.N() != 3 {
		t.Fatalf("rejoined identity: self=%d n=%d", fresh.Self(), fresh.N())
	}
	if got := fresh.(*TCP).Addr(); got != oldAddr {
		t.Fatalf("rejoined on %s, want original address %s", got, oldAddr)
	}
	if _, err := ts[1].Recv(); err != ErrClosed {
		t.Fatalf("old incarnation Recv: %v, want ErrClosed", err)
	}

	// The new incarnation dials node 0 afresh; its frame is delivered.
	if err := fresh.Send(0, []byte("reborn")); err != nil {
		t.Fatal(err)
	}
	if f, err := ts[0].Recv(); err != nil || string(f.Payload) != "reborn" {
		t.Fatalf("recv from rejoined node: %q err %v", f.Payload, err)
	}
	// And traffic toward the new incarnation re-dials its rebound listener.
	if err := ts[2].Send(1, []byte("welcome back")); err != nil {
		t.Fatal(err)
	}
	if f, err := fresh.Recv(); err != nil || string(f.Payload) != "welcome back" {
		t.Fatalf("rejoined node recv: %q err %v", f.Payload, err)
	}
}
