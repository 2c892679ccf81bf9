// TCP frontend: a minimal request/response wire for driving a serve
// cluster from another process. One connection carries one client's
// sequential operations — request [op:1][key:8][val:8], response
// [status:1][val:8] with an error message appended ([len:2][msg]) on
// failure — so a remote load generator opens one connection per client.
package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

const (
	reqLen  = 17
	respLen = 9

	opGet = 0
	opPut = 1

	statusOK  = 0
	statusErr = 1
)

// Frontend accepts TCP connections and forwards their operations to the
// server's dispatcher.
type Frontend struct {
	ln     net.Listener
	sv     *Server
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ServeTCP starts a frontend on addr (e.g. "127.0.0.1:0") for sv.
func ServeTCP(sv *Server, addr string) (*Frontend, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: frontend listen: %w", err)
	}
	f := &Frontend{ln: ln, sv: sv, conns: make(map[net.Conn]struct{})}
	f.wg.Add(1)
	go f.acceptLoop()
	return f, nil
}

// Addr returns the frontend's listen address.
func (f *Frontend) Addr() string { return f.ln.Addr().String() }

// Close stops accepting, closes every connection and waits for the
// connection handlers to drain. Call before Server.Shutdown so no
// in-flight request gets stranded in a closing dispatcher.
func (f *Frontend) Close() {
	f.mu.Lock()
	f.closed = true
	conns := make([]net.Conn, 0, len(f.conns))
	for c := range f.conns {
		conns = append(conns, c)
	}
	f.mu.Unlock()
	f.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	f.wg.Wait()
}

func (f *Frontend) acceptLoop() {
	defer f.wg.Done()
	for {
		c, err := f.ln.Accept()
		if err != nil {
			return // listener closed
		}
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			c.Close()
			return
		}
		f.conns[c] = struct{}{}
		f.mu.Unlock()
		f.wg.Add(1)
		go f.handle(c)
	}
}

func (f *Frontend) handle(c net.Conn) {
	defer f.wg.Done()
	defer func() {
		f.mu.Lock()
		delete(f.conns, c)
		f.mu.Unlock()
		c.Close()
	}()
	var req [reqLen]byte
	var ok [respLen]byte // success frame, rebuilt in place per request
	for {
		if _, err := io.ReadFull(c, req[:]); err != nil {
			return // client gone or frontend closing
		}
		put := req[0] == opPut
		key := binary.LittleEndian.Uint64(req[1:9])
		val := binary.LittleEndian.Uint64(req[9:17])
		got, err := f.sv.Do(put, key, val)
		resp := ok[:]
		if err != nil {
			msg := err.Error()
			if len(msg) > 1<<15 {
				msg = msg[:1<<15]
			}
			resp = make([]byte, respLen+2+len(msg))
			resp[0] = statusErr
			binary.LittleEndian.PutUint16(resp[respLen:], uint16(len(msg)))
			copy(resp[respLen+2:], msg)
		} else {
			resp[0] = statusOK
			binary.LittleEndian.PutUint64(resp[1:9], got)
		}
		if _, werr := c.Write(resp); werr != nil {
			return
		}
	}
}

// Client is one TCP connection to a frontend; it implements the load
// generator's Driver for one sequential client.
type Client struct {
	c   net.Conn
	req [reqLen]byte
}

// Dial connects a client to a frontend address.
func Dial(addr string) (*Client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: dial frontend: %w", err)
	}
	return &Client{c: c}, nil
}

// Do issues one operation over the connection and waits for its
// response.
func (cl *Client) Do(put bool, key, val uint64) (uint64, error) {
	cl.req[0] = opGet
	if put {
		cl.req[0] = opPut
	}
	binary.LittleEndian.PutUint64(cl.req[1:9], key)
	binary.LittleEndian.PutUint64(cl.req[9:17], val)
	if _, err := cl.c.Write(cl.req[:]); err != nil {
		return 0, fmt.Errorf("serve: client write: %w", err)
	}
	var resp [respLen]byte
	if _, err := io.ReadFull(cl.c, resp[:]); err != nil {
		return 0, fmt.Errorf("serve: client read: %w", err)
	}
	if resp[0] == statusErr {
		var ln [2]byte
		if _, err := io.ReadFull(cl.c, ln[:]); err != nil {
			return 0, fmt.Errorf("serve: client read error frame: %w", err)
		}
		msg := make([]byte, binary.LittleEndian.Uint16(ln[:]))
		if _, err := io.ReadFull(cl.c, msg); err != nil {
			return 0, fmt.Errorf("serve: client read error frame: %w", err)
		}
		return 0, fmt.Errorf("serve: remote: %s", msg)
	}
	return binary.LittleEndian.Uint64(resp[1:9]), nil
}

// Close closes the connection.
func (cl *Client) Close() error { return cl.c.Close() }
