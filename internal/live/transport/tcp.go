package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// maxFrame bounds a received frame's claimed length; anything larger is
// treated as a corrupt stream and the connection is dropped.
const maxFrame = 64 << 20

// frameHdr is the per-frame header: 8-byte sequence, 4-byte length.
const frameHdr = 12

// wbufMax caps the per-peer write scratch: a frame up to this size is
// assembled in it and leaves in one write; a larger one goes out as a
// gathered write instead of pinning its size per peer for good.
const wbufMax = 64 << 10

// readBuf sizes each inbound connection's buffered reader: a small frame
// costs one read(2), often shared with its neighbours, instead of one
// for the header and one for the payload.
const readBuf = 16 << 10

// TCPOptions tunes the TCP transport's dialing and I/O behaviour. The
// zero value selects the defaults.
type TCPOptions struct {
	// DialTimeout bounds one dial attempt (default 2s).
	DialTimeout time.Duration
	// DialBackoff is the delay after the first failed dial attempt; it
	// doubles per retry up to DialMaxBackoff (defaults 20ms / 1s).
	DialBackoff    time.Duration
	DialMaxBackoff time.Duration
	// DialAttempts is the number of connect attempts per Send before the
	// error is surfaced (default 8).
	DialAttempts int
	// WriteTimeout bounds one frame write (default 10s). The connection's
	// write deadline is re-armed only once less than half of it remains,
	// so a write may get anywhere from WriteTimeout/2 to WriteTimeout.
	WriteTimeout time.Duration
	// Dial replaces net.DialTimeout, for tests that inject dial failures.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.DialBackoff <= 0 {
		o.DialBackoff = 20 * time.Millisecond
	}
	if o.DialMaxBackoff <= 0 {
		o.DialMaxBackoff = time.Second
	}
	if o.DialAttempts <= 0 {
		o.DialAttempts = 8
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.Dial == nil {
		o.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return o
}

// TCP is the TCP transport of one node. Each ordered peer pair uses one
// outbound connection, established lazily on first Send and re-dialed
// with exponential backoff after failures. Frames carry a per-peer
// sequence number so a retransmission after a dropped connection is
// de-duplicated at the receiver (exactly-once delivery per surviving
// run, at-least-once on the wire).
type TCP struct {
	self  int
	addrs []string
	opts  TCPOptions
	ln    net.Listener

	// boot numbers this transport incarnation (0 for the original). It is
	// carried in the connection hello: a receiver seeing a higher boot id
	// from a peer resets that peer's sequence de-duplication, so a
	// restarted node — whose sequence numbers restart at 1 — is not
	// silently discarded as a replay of its previous life.
	boot uint32

	in   *inbox
	done chan struct{}
	once sync.Once

	mu    sync.Mutex // guards conns, seq, accepted
	conns map[int]net.Conn
	seq   map[int]uint64
	// out holds one sending slot per destination.
	out []peerOut

	recvMu   sync.Mutex // guards lastSeq, lastBoot
	lastSeq  map[int]uint64
	lastBoot map[int]uint32

	acceptWG sync.WaitGroup
	accepted map[net.Conn]bool
}

// NewTCPNode builds the transport of node self in a cluster whose node i
// listens on addrs[i]. It starts listening immediately; peers are dialed
// lazily on first Send.
func NewTCPNode(self int, addrs []string, opts TCPOptions) (*TCP, error) {
	ln, err := net.Listen("tcp", addrs[self])
	if err != nil {
		return nil, fmt.Errorf("transport: node %d listen %s: %w", self, addrs[self], err)
	}
	return newTCPNode(self, addrs, ln, opts, 0), nil
}

// peerOut is one destination's sending slot. mu serializes Sends to the
// peer: a frame's sequence number must reach the wire in sequence order
// or the receiver's de-duplication would discard reordered (not
// duplicated) frames. Under it, buf is the peer's write scratch and
// deadline the write deadline armed on conn.
type peerOut struct {
	mu       sync.Mutex
	buf      []byte
	conn     net.Conn
	deadline time.Time
}

func newTCPNode(self int, addrs []string, ln net.Listener, opts TCPOptions, boot uint32) *TCP {
	done := make(chan struct{})
	t := &TCP{
		self:     self,
		addrs:    addrs,
		opts:     opts.withDefaults(),
		ln:       ln,
		boot:     boot,
		in:       newInbox(done),
		done:     done,
		conns:    make(map[int]net.Conn),
		seq:      make(map[int]uint64),
		lastSeq:  make(map[int]uint64),
		lastBoot: make(map[int]uint32),
		accepted: make(map[net.Conn]bool),
		out:      make([]peerOut, len(addrs)),
	}
	t.acceptWG.Add(1)
	go t.acceptLoop()
	return t
}

// NewTCPLoopback builds an n-node cluster on ephemeral loopback ports and
// returns one transport per node. Listeners are bound before any node
// starts, so the address list is complete from the outset.
func NewTCPLoopback(n int, opts TCPOptions) ([]Transport, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("transport: loopback listen: %w", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	ts := make([]Transport, n)
	for i := 0; i < n; i++ {
		ts[i] = newTCPNode(i, addrs, lns[i], opts, 0)
	}
	return ts, nil
}

// Addr returns the node's listen address.
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// Self implements Transport.
func (t *TCP) Self() int { return t.self }

// N implements Transport.
func (t *TCP) N() int { return len(t.addrs) }

// Send implements Transport. On a write failure the connection is torn
// down and the frame is retransmitted over a fresh connection (dialed
// with retry and exponential backoff); the receiver de-duplicates by
// sequence number, so a frame that did arrive before the drop is not
// delivered twice.
func (t *TCP) Send(to int, payload []byte) error {
	if to < 0 || to >= len(t.addrs) || to == t.self {
		return fmt.Errorf("transport: tcp send to invalid peer %d", to)
	}
	p := &t.out[to]
	p.mu.Lock()
	defer p.mu.Unlock()
	t.mu.Lock()
	t.seq[to]++
	seq := t.seq[to]
	t.mu.Unlock()

	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		conn, err := t.peerConn(to)
		if err != nil {
			return err
		}
		if err = t.writeFrame(p, conn, seq, payload); err == nil {
			return nil
		}
		lastErr = err
		t.dropConn(to, conn)
		if t.closed() {
			return ErrClosed
		}
	}
	return fmt.Errorf("transport: send to %d: %w", to, lastErr)
}

// writeFrame serializes one frame to a peer: 8-byte sequence, 4-byte
// length, payload, assembled in the peer's scratch buffer so that it
// costs one write and no allocation. Writes hold a write deadline, which
// is re-armed — a runtime timer update — only on a fresh connection or
// once less than half of WriteTimeout remains. Caller holds p.mu.
func (t *TCP) writeFrame(p *peerOut, conn net.Conn, seq uint64, payload []byte) error {
	buf := append(p.buf[:0], make([]byte, frameHdr)...)
	binary.BigEndian.PutUint64(buf, seq)
	binary.BigEndian.PutUint32(buf[8:], uint32(len(payload)))
	if now := time.Now(); conn != p.conn || p.deadline.Sub(now) < t.opts.WriteTimeout/2 {
		p.conn, p.deadline = conn, now.Add(t.opts.WriteTimeout)
		conn.SetWriteDeadline(p.deadline)
	}
	gather := frameHdr+len(payload) > wbufMax
	if !gather {
		buf = append(buf, payload...)
	}
	p.buf = buf
	if gather {
		bufs := net.Buffers{buf, payload}
		_, err := bufs.WriteTo(conn)
		return err
	}
	_, err := conn.Write(buf)
	return err
}

// peerConn returns the established outbound connection for a peer,
// dialing with retry and exponential backoff if there is none.
func (t *TCP) peerConn(to int) (net.Conn, error) {
	t.mu.Lock()
	if c := t.conns[to]; c != nil {
		t.mu.Unlock()
		return c, nil
	}
	t.mu.Unlock()

	backoff := t.opts.DialBackoff
	var lastErr error
	for attempt := 0; attempt < t.opts.DialAttempts; attempt++ {
		if t.closed() {
			return nil, ErrClosed
		}
		if attempt > 0 {
			select {
			case <-time.After(backoff):
			case <-t.done:
				return nil, ErrClosed
			}
			backoff *= 2
			if backoff > t.opts.DialMaxBackoff {
				backoff = t.opts.DialMaxBackoff
			}
		}
		conn, err := t.opts.Dial(t.addrs[to], t.opts.DialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		// Handshake: identify ourselves (node id + boot) so the acceptor
		// can attribute inbound frames and fence replays across restarts.
		var hello [8]byte
		binary.BigEndian.PutUint32(hello[:4], uint32(t.self))
		binary.BigEndian.PutUint32(hello[4:], t.boot)
		conn.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout))
		if _, err := conn.Write(hello[:]); err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		conn.SetWriteDeadline(time.Time{})
		t.mu.Lock()
		if old := t.conns[to]; old != nil {
			// A concurrent Send raced us to the dial; keep the first.
			t.mu.Unlock()
			conn.Close()
			return old, nil
		}
		t.conns[to] = conn
		t.mu.Unlock()
		return conn, nil
	}
	return nil, fmt.Errorf("transport: dial peer %d (%s) after %d attempts: %w",
		to, t.addrs[to], t.opts.DialAttempts, lastErr)
}

// ResetPeer implements PeerResetter: it severs the established outbound
// connection to a peer, as a crashed link would. The next Send re-dials
// and retransmits; receiver-side sequence de-duplication keeps delivery
// exactly-once.
func (t *TCP) ResetPeer(to int) {
	t.mu.Lock()
	c := t.conns[to]
	delete(t.conns, to)
	t.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// dropConn removes a failed outbound connection so the next Send
// re-dials.
func (t *TCP) dropConn(to int, conn net.Conn) {
	t.mu.Lock()
	if t.conns[to] == conn {
		delete(t.conns, to)
	}
	t.mu.Unlock()
	conn.Close()
}

// acceptLoop admits inbound peer connections for the transport's
// lifetime.
func (t *TCP) acceptLoop() {
	defer t.acceptWG.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.accepted == nil {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.accepted[conn] = true
		t.mu.Unlock()
		t.acceptWG.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop decodes frames off one inbound connection, de-duplicating by
// per-peer sequence number, and delivers each on this goroutine, until
// the stream errors or closes. A partial
// frame at the tail of a dropped connection is discarded silently — the
// sender retransmits it with the same sequence number on its next
// connection.
func (t *TCP) readLoop(conn net.Conn) {
	defer t.acceptWG.Done()
	defer func() {
		t.mu.Lock()
		if t.accepted != nil {
			delete(t.accepted, conn)
		}
		t.mu.Unlock()
		conn.Close()
	}()
	var hello [8]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return
	}
	from := int(binary.BigEndian.Uint32(hello[:4]))
	boot := binary.BigEndian.Uint32(hello[4:])
	if from < 0 || from >= len(t.addrs) {
		return
	}
	t.recvMu.Lock()
	switch last := t.lastBoot[from]; {
	case boot > last:
		// A restarted incarnation: its sequence numbers restart at 1, so
		// the old de-duplication watermark would discard every frame.
		t.lastBoot[from] = boot
		t.lastSeq[from] = 0
	case boot < last:
		// A connection from a dead incarnation that dialed before the
		// restart; its frames are stale by definition.
		t.recvMu.Unlock()
		return
	}
	t.recvMu.Unlock()
	br := bufio.NewReaderSize(conn, readBuf)
	var hdr [frameHdr]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		seq := binary.BigEndian.Uint64(hdr[:])
		size := binary.BigEndian.Uint32(hdr[8:])
		if size > maxFrame {
			return
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		t.recvMu.Lock()
		dup := seq <= t.lastSeq[from]
		if !dup {
			t.lastSeq[from] = seq
		}
		t.recvMu.Unlock()
		if !dup {
			t.in.deliver(Frame{From: from, Payload: payload})
		}
	}
}

// Handle implements Transport: connection readers call h right after
// sequence de-duplication.
func (t *TCP) Handle(h func(Frame)) { t.in.handle(h) }

// Recv implements Transport.
func (t *TCP) Recv() (Frame, error) { return t.in.recv() }

func (t *TCP) closed() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// Close implements Transport.
func (t *TCP) Close() error {
	t.once.Do(func() {
		close(t.done)
		t.ln.Close()
		t.mu.Lock()
		for _, c := range t.conns {
			c.Close()
		}
		t.conns = map[int]net.Conn{}
		for c := range t.accepted {
			c.Close()
		}
		t.accepted = nil
		t.mu.Unlock()
	})
	return nil
}
