package node

// flush.go is the lazy release's bookkeeping: what happens to a closed
// interval's diffs after closeInterval has sent them and returned, and
// how readers are kept from seeing a copy that misses them.
//
// Writer side. Each release that dirtied pages homed elsewhere puts one
// KWriteNotices flight per home in the air and keeps it registered until
// that home's ack retires it — in deliver, where the ack lands; nobody
// is woken unless a worker is draining. An ack is a flush token in the
// Acks header of whatever frame the home sends the writer next (most
// often the grant for a lock request the writer queued behind its
// flush), or of a standalone KAck when a turn at the home ends with
// nothing queued and acks still owed (see oweAck). Acks never cross a
// recovery epoch: a restarted writer's tokens start again at 1. A home
// tracks one version per writer and page, so it must apply one writer's
// diffs to a page in interval order even when an earlier flight is lost
// or overtaken. The sender guarantees it: a flight also carries, ahead of
// its own diffs, the diffs of every still unacknowledged older flight to
// that home that touch the same pages (the home's version check skips
// what it already holds). One timer per node owns retransmission: it
// resends an unacknowledged flight on the jittered RetryBase..RetryMax
// schedule and, when one has gone unacknowledged for RPCTimeout, unwinds
// the worker with the rpc-timeout error a blocking wait would have
// raised. Only a barrier arrival and FinalFlush wait for the flights to
// be acknowledged (drainFlights), which keeps a barrier episode a
// consistent cut; a release waits only for flow control, when maxInflight
// older flights are still in the air.
//
// Reader side. "Nobody reads a copy older than the notices it has
// seen": lpage.need is raised by every write notice and by the node's
// own interval closes, and these waits enforce it —
//
//	who waits                                      where, until what
//	a worker touching a noticed page homed here    awaitHome, until homeRecordLocked has the flush
//	a fault or pull sent to a remote home          parked at the home until its homeVT covers the request's Need
//	a barrier arrival, FinalFlush                  drainFlights, until every flight is acknowledged
//	a flush stamped past a checkpoint gate         buffered unacknowledged until the capture (recover.go)

import (
	"fmt"
	"sync/atomic"
	"time"

	"lrcdsm/internal/live/wire"
	"lrcdsm/internal/page"
)

// flushFlight is one unacknowledged KWriteNotices message. Node.flights
// holds them per home, oldest first. Guarded by Node.pmu.
type flushFlight struct {
	flush
	own int // the trailing own diffs of diffs; the rest is carried

	sent    time.Time // first transmission; the RPC deadline runs from here
	next    time.Time // next retransmission
	backoff time.Duration
}

// flush is what a flight puts on the wire. Every transmission builds its
// own message from it (send stamps the envelope of what it is given, and
// the first send may still be in progress when the timer resends).
type flush struct {
	to      int
	token   int64
	episode int64  // the sender's departed-barrier count (see launchFlights)
	epoch   uint32 // recovery epoch the flight was built in
	attempt int    // retransmissions so far
	diffs   []wire.Diff
}

func (f *flush) msg() *wire.Msg {
	return &wire.Msg{Kind: wire.KWriteNotices, Token: f.token, Episode: f.episode,
		Attempt: uint8(min(f.attempt, 255)), Diffs: f.diffs}
}

// launchFlights registers one flight per home with diffs in perHome
// (indexed by home node; nil: nothing to flush) and returns the messages
// to send. Caller holds Node.mu — that is what orders concurrent lanes'
// flights by interval index — and sends after dropping it.
func (n *Node) launchFlights(perHome [][]wire.Diff) []flush {
	if perHome == nil {
		return nil
	}
	now := time.Now()
	epoch := n.epoch.Load()
	var out []flush
	n.pmu.Lock()
	for home, own := range perHome {
		if len(own) == 0 {
			continue
		}
		// Carry the older unacknowledged diffs for the same pages, so the
		// home cannot apply this interval to a page ahead of them.
		var diffs []wire.Diff
		for _, f := range n.flights[home] {
			for _, old := range f.diffs[len(f.diffs)-f.own:] {
				for i := range own {
					if own[i].D.Page == old.D.Page {
						diffs = append(diffs, old)
						break
					}
				}
			}
		}
		if diffs != nil {
			own = append(diffs, own...)
		}
		n.nextTok++
		// The Episode stamp is the sender's departed-barrier count: a home
		// holding a capture gate for episode E applies flushes stamped
		// below E (pre-cut) and buffers the rest (post-cut). A barrier
		// arrival drains the flights, so carried diffs never cross one.
		fl := flush{to: home, token: n.nextTok, episode: n.barsDone, epoch: epoch, diffs: own}
		n.flights[home] = append(n.flights[home], flushFlight{
			flush: fl, own: len(perHome[home]),
			sent: now, next: now.Add(n.jitter(n.cfg.RetryBase)), backoff: n.cfg.RetryBase,
		})
		n.inflight.Add(1)
		out = append(out, fl)
	}
	if !n.retryArmed {
		n.armRetryLocked(n.cfg.RetryBase / 2)
	}
	n.pmu.Unlock()
	return out
}

// retireAcks removes the flights to home that acks name (a token with no
// flight was acknowledged before, by an earlier copy) and wakes a worker
// waiting in awaitFlights.
func (n *Node) retireAcks(home int, acks []int64) {
	if home < 0 || home >= len(n.flights) {
		return
	}
	n.pmu.Lock()
	defer n.pmu.Unlock()
	for _, tok := range acks {
		fl := n.flights[home]
		for i := range fl {
			if fl[i].token != tok {
				continue
			}
			n.flights[home] = append(fl[:i], fl[i+1:]...)
			n.inflight.Add(-1)
			if n.retired != nil {
				close(n.retired)
				n.retired = nil
			}
			break
		}
	}
}

// owedAcks is what a home owes one writer: the tokens of flushes it has
// applied and not yet acknowledged, all stamped with one recovery epoch.
type owedAcks struct {
	epoch uint32
	toks  []int64
}

// oweAck records that writer w's flush tok, stamped with epoch, has been
// handled and is owed its ack. Acks still owed from another epoch are
// dropped: they name flights of a discarded execution.
func (n *Node) oweAck(w int, tok int64, epoch uint32) {
	n.pmu.Lock()
	o := &n.owed[w]
	if o.epoch != epoch {
		o.epoch, o.toks = epoch, o.toks[:0]
	}
	o.toks = append(o.toks, tok)
	n.owing[w].Store(true)
	n.pmu.Unlock()
}

// takeAcks appends to dst, and stops owing, the acks owed to writer w
// that a frame stamped with epoch may carry: only acks of that epoch —
// the writer's flights of any other are gone, or belong to a fresh
// incarnation whose tokens start again at 1. Owed acks of an epoch this
// node has left are discarded; those of its current epoch stay for a
// frame of their own epoch (this one is a retransmission from an older).
func (n *Node) takeAcks(w int, epoch uint32, dst []int64) []int64 {
	n.pmu.Lock()
	defer n.pmu.Unlock()
	o := &n.owed[w]
	if o.epoch == epoch {
		dst = append(dst, o.toks...)
	} else if o.epoch == n.epoch.Load() {
		return dst
	}
	o.toks = o.toks[:0]
	n.owing[w].Store(false)
	return dst
}

// sendOwedAcks sends each writer still owed acks one standalone KAck
// (Token 0) carrying them: after every turn, the dispatcher's or an
// in-place one, that leaves the queue empty, and after the checkpoint
// capture's drain.
func (n *Node) sendOwedAcks() {
	epoch := n.epoch.Load()
	for w := range n.owing {
		if !n.owing[w].Load() {
			continue
		}
		var buf [8]int64
		if acks := n.takeAcks(w, epoch, buf[:0]); len(acks) > 0 {
			m := &wire.Msg{Kind: wire.KAck}
			n.stamp(m, epoch)
			// A lost ack costs the writer a retransmission, nothing more.
			_ = n.transmit(w, m, acks)
		}
	}
}

// armRetryLocked schedules retryFlights in d. Caller holds Node.pmu.
func (n *Node) armRetryLocked(d time.Duration) {
	n.retryArmed = true
	if n.retryTimer == nil {
		n.retryTimer = time.AfterFunc(d, n.retryFlights)
	} else {
		n.retryTimer.Reset(d)
	}
}

// stopRetry cancels the retransmission timer at shutdown: a pending
// timer would keep the whole node — pages, diff logs — reachable until
// it fired.
func (n *Node) stopRetry() {
	n.pmu.Lock()
	if n.retryTimer != nil {
		n.retryTimer.Stop()
	}
	n.pmu.Unlock()
}

// retryFlights is the retransmission timer's body. It re-arms itself
// while any flight is outstanding.
func (n *Node) retryFlights() {
	select {
	case <-n.done:
		return
	default:
	}
	now := time.Now()
	var resend []flush
	var expired error
	var wake time.Time
	n.pmu.Lock()
	for home, fl := range n.flights {
		for i := range fl {
			f := &fl[i]
			deadline := f.sent.Add(n.cfg.RPCTimeout)
			if !now.Before(deadline) && expired == nil {
				expired = fmt.Errorf("node %d: rpc timeout: %v to node %d after %v (token %d, %d retransmissions)",
					n.id, wire.KWriteNotices, home, n.cfg.RPCTimeout, f.token, f.attempt)
			}
			if !now.Before(f.next) {
				f.attempt++
				resend = append(resend, f.flush)
				f.backoff = min(2*f.backoff, n.cfg.RetryMax)
				f.next = now.Add(n.jitter(f.backoff))
				if f.next.After(deadline) {
					f.next = deadline
				}
			}
			if wake.IsZero() || f.next.Before(wake) {
				wake = f.next
			}
		}
	}
	if expired != nil || n.inflight.Load() == 0 {
		n.retryArmed = false
	} else {
		n.armRetryLocked(max(time.Until(wake), time.Millisecond))
	}
	n.pmu.Unlock()
	if expired != nil {
		n.InterruptWorker(expired)
		return
	}
	for i := range resend {
		atomic.AddInt64(&n.stats.RPCRetries, 1)
		atomic.AddInt64(&n.stats.FlushRetransmits, 1)
		// A transport error here is as transient as a lost frame; the next
		// tick retries, the deadline above bounds it.
		_ = n.sendEpoch(resend[i].to, resend[i].msg(), resend[i].epoch)
	}
}

// maxInflight bounds the flush flights a node keeps in the air. A
// release never waits for its own flush, but a worker releasing faster
// than the homes acknowledge must not grow the backlog — and the diffs
// each new flight carries for it — without limit: with maxInflight older
// flights still unacknowledged, closeInterval waits for one of them
// first. A handful is enough to hide the round trip (2-node cholesky
// over loopback TCP: 1 gives back half the gain to stalls, 2 to 8
// measure alike) and keeps what a flight carries small (at 32 a tight
// release loop on one page ran slower than the blocking release did).
const maxInflight = 4

// drainFlights blocks until every flush flight has been acknowledged:
// the one place a release still waits for the homes. A barrier arrival
// calls it so that the episode stays a consistent cut (every interval
// before the barrier is at its homes before anyone departs), FinalFlush
// so that the homes hold the final image.
func (n *Node) drainFlights() { n.awaitFlights(0) }

// awaitFlights blocks while more than limit flights are unacknowledged.
// The retry timer keeps them moving; an interrupt or shutdown unwinds
// the wait like any RPC wait.
func (n *Node) awaitFlights(limit int) {
	var t0 time.Time
	for int(n.inflight.Load()) > limit {
		n.pmu.Lock()
		if int(n.inflight.Load()) <= limit {
			n.pmu.Unlock()
			break
		}
		if n.retired == nil {
			n.retired = make(chan struct{})
		}
		retired := n.retired
		n.pmu.Unlock()
		if t0.IsZero() {
			t0 = time.Now()
		}
		select {
		case <-retired:
		case <-n.intrChan():
			n.panicInterrupted()
		case <-n.done:
			panic(runError{n.closedErr()})
		}
	}
	if !t0.IsZero() {
		atomic.AddInt64(&n.stats.FlushWaitNs, time.Since(t0).Nanoseconds())
	}
}

// resetFlights abandons every flight (rollback: the diffs belong to a
// discarded execution; copies already on the wire carry the old epoch).
func (n *Node) resetFlights() {
	n.pmu.Lock()
	for home := range n.flights {
		n.flights[home] = nil
	}
	n.inflight.Store(0)
	if n.retired != nil {
		close(n.retired)
		n.retired = nil
	}
	n.pmu.Unlock()
}

// awaitHome blocks a worker that touched a page homed here while a
// flush it has been told about is still on its way: homeRecordLocked
// makes the page readable again when the flush lands. It is the home
// worker's counterpart of a remote requester being parked. Unwound by an
// interrupt or shutdown like any RPC wait; the writer's own
// retransmission deadline bounds it.
func (n *Node) awaitHome(pg page.ID) {
	t0 := time.Now()
	intr := n.intrChan()
	for {
		n.mu.Lock()
		if n.pages[pg].valid() {
			n.mu.Unlock()
			break
		}
		if n.homeWake == nil {
			n.homeWake = make(chan struct{})
		}
		wake := n.homeWake
		n.mu.Unlock()
		select {
		case <-wake:
		case <-intr:
			n.panicInterrupted()
		case <-n.done:
			panic(runError{n.closedErr()})
		}
	}
	atomic.AddInt64(&n.stats.HomeWaitNs, time.Since(t0).Nanoseconds())
}

// parkedReq is a page or diff request held at its home until the home's
// copy reaches the version the requester was told about. It owns copies
// of the frame's vectors; msg rebuilds the request.
type parkedReq struct {
	kind       wire.Kind
	from       int32
	token      int64
	epoch      uint32
	page       int32
	have, need []int32
}

func (p *parkedReq) msg() *wire.Msg {
	return &wire.Msg{Kind: p.kind, From: p.from, Token: p.token, Epoch: p.epoch, Page: p.page, VT: p.have, Need: p.need}
}

// parkLocked holds request m (a KPageReq or KDiffReq whose Need the
// home's copy does not cover yet). The requester keeps retransmitting
// under the same token; a retransmission replaces its parked original.
// Caller holds Node.mu.
func (n *Node) parkLocked(m *wire.Msg) {
	p := parkedReq{
		kind: m.Kind, from: m.From, token: m.Token, epoch: m.Epoch, page: m.Page,
		have: append([]int32(nil), m.VT...), need: append([]int32(nil), m.Need...),
	}
	for i := range n.parked {
		if q := &n.parked[i]; q.from == p.from && q.token == p.token {
			*q = p
			return
		}
	}
	n.parked = append(n.parked, p)
	atomic.AddInt64(&n.stats.ParkedReqs, 1)
}

// unparkLocked removes and returns the parked requests the home can now
// answer; the caller re-handles them after dropping Node.mu. Called
// whenever a flush has been recorded, which includes the capture gate
// draining.
func (n *Node) unparkLocked() []parkedReq {
	var ready []parkedReq
	keep := n.parked[:0]
	for _, p := range n.parked {
		if covers(n.pages[p.page].homeVT, p.need) {
			ready = append(ready, p)
		} else {
			keep = append(keep, p)
		}
	}
	n.parked = keep
	return ready
}
