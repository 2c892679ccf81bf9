package core

import (
	"fmt"

	"lrcdsm/internal/trace"
	"lrcdsm/internal/vc"
)

// Locks use a distributed queue: every lock has a statically assigned
// manager (owner) that tracks the queue tail. A requester sends its request
// to the manager, which forwards it to the tail; the tail grants the lock
// directly to the requester when it releases (or immediately if it holds
// the token released). Three messages per remote acquisition — the paper's
// "processors acquire locks by sending a request to the statically assigned
// owner, who forwards the request on to the current holder".
//
// Reacquiring a lock the processor still has the token for requires no
// communication at all — the lazy-protocol advantage the paper highlights
// ("lazy release consistency permits us to avoid external communication
// when the same lock is reacquired").

// lockManager returns the lock's statically assigned manager.
func (s *System) lockManager(lock int) int { return lock % s.cfg.Procs }

// Lock acquires an exclusive lock, performing the protocol's
// acquire-side consistency actions.
func (p *Proc) Lock(lock int) {
	if lock < 0 || lock >= p.sys.nlocks {
		panic(fmt.Sprintf("core: lock %d out of range", lock))
	}
	p.sp.Interact()
	ls := &p.locks[lock]
	if ls.held {
		panic(fmt.Sprintf("core: proc %d double-acquires lock %d", p.id, lock))
	}
	p.sys.stats.LockAcquires++
	if p.sys.trace.Enabled() {
		p.sys.trace.Add(p.sp.Clock(), p.id, trace.LockRequest, int32(lock), -1)
	}
	if ls.present {
		if ls.nextReq != -1 {
			// Token is promised to a queued requester; this cannot happen
			// because releases grant immediately.
			panic(fmt.Sprintf("core: proc %d has token for lock %d with queued request", p.id, lock))
		}
		ls.held = true
		p.sys.stats.LocalReacquires++
		return
	}
	start := p.sp.Clock()
	m := &msg{kind: mLockReq, src: p.id, dst: p.sys.lockManager(lock),
		class: ClassSync, attr: attrLock, lock: lock}
	if p.sys.cfg.Protocol.Lazy() {
		m.vt = []int32(p.vt.Clone())
	}
	p.sendFromProc(m)
	p.sp.Block()
	d := p.sp.Clock() - start
	p.sys.stats.LockWaitCycles += d
	p.pstats.LockWait += d
	p.pstats.LockAcquires++
}

// Unlock releases the lock: the protocol's release-side consistency
// actions run first (closing the interval; eager protocols flush), then a
// queued requester, if any, is granted.
func (p *Proc) Unlock(lock int) {
	if lock < 0 || lock >= p.sys.nlocks {
		panic(fmt.Sprintf("core: lock %d out of range", lock))
	}
	p.sp.Interact()
	ls := &p.locks[lock]
	if !ls.held {
		panic(fmt.Sprintf("core: proc %d releases lock %d it does not hold", p.id, lock))
	}
	if p.sys.trace.Enabled() {
		p.sys.trace.Add(p.sp.Clock(), p.id, trace.LockRelease, int32(lock), -1)
	}
	if p.sys.cfg.Protocol.Lazy() {
		p.closeInterval()
	} else {
		p.sys.prot.releaseFlush(p)
	}
	ls.held = false
	if p.sys.cfg.CentralizedLocks {
		mgr := p.sys.lockManager(lock)
		if p.id == mgr && len(ls.queue) > 0 {
			w := ls.queue[0]
			ls.queue = ls.queue[1:]
			ls.present = false
			p.grantLock(lock, w.req, w.vt, true)
			return
		}
		if p.id != mgr {
			// Return the token to the manager; the consistency information
			// travels with it (the manager performs an acquire).
			ls.present = false
			g := p.sys.prot.buildGrant(p, mgr, p.sys.procs[mgr].vt)
			m := &msg{kind: mLockGrant, src: p.id, dst: mgr, class: ClassSync,
				attr: attrLock, lock: lock, grant: g, flag: true}
			if g != nil {
				m.payload = diffsPayloadBytes(g.diffs)
			}
			p.sendFromProc(m)
		}
		return
	}
	if ls.nextReq != -1 {
		req, reqVT := ls.nextReq, ls.nextVT
		ls.nextReq = -1
		ls.nextVT = nil
		ls.present = false
		p.grantLock(lock, req, reqVT, true)
	}
}

// grantLock builds and sends the grant message carrying the protocol's
// consistency information. procCtx selects the send path.
func (p *Proc) grantLock(lock, to int, reqVT vc.VC, procCtx bool) {
	g := p.sys.prot.buildGrant(p, to, reqVT)
	m := &msg{kind: mLockGrant, src: p.id, dst: to, class: ClassSync, attr: attrLock,
		lock: lock, grant: g}
	if g != nil {
		m.payload = diffsPayloadBytes(g.diffs)
	}
	if procCtx {
		p.sendFromProc(m)
	} else {
		p.sys.sendFromHandler(m)
	}
}

// handleLockReq runs at the lock's manager: forward the request to the
// current queue tail (distributed mode) or queue/grant it here
// (centralized-lock ablation).
func (s *System) handleLockReq(m *msg) {
	if s.cfg.CentralizedLocks {
		mgr := s.procs[m.dst]
		ls := &mgr.locks[m.lock]
		if ls.present && !ls.held {
			ls.present = false
			mgr.grantLock(m.lock, m.src, vc.VC(m.vt), false)
			return
		}
		ls.queue = append(ls.queue, lockWaiter{req: m.src, vt: vc.VC(m.vt)})
		return
	}
	tail := s.lockTail[m.lock]
	s.lockTail[m.lock] = m.src
	if tail == m.src {
		panic(fmt.Sprintf("core: proc %d requests lock %d it is the tail of", m.src, m.lock))
	}
	fwd := &msg{kind: mLockFwd, src: m.dst, dst: tail, class: ClassSync, attr: attrLock,
		lock: m.lock, vt: m.vt}
	// The request's original source must survive the forward.
	fwd.hops = m.src
	if tail == m.dst {
		// The manager itself is the tail: handle locally, no extra message.
		s.handleLockFwd(s.procs[tail], fwd)
		return
	}
	s.sendFromHandler(fwd)
}

// handleLockFwd runs at the queue tail: grant immediately if the token is
// free, otherwise queue the requester for the next release.
func (s *System) handleLockFwd(p *Proc, m *msg) {
	requester := m.hops
	ls := &p.locks[m.lock]
	if ls.nextReq != -1 {
		panic(fmt.Sprintf("core: proc %d already has a queued request for lock %d", p.id, m.lock))
	}
	if ls.present && !ls.held {
		ls.present = false
		p.grantLock(m.lock, requester, vc.VC(m.vt), false)
		return
	}
	ls.nextReq = requester
	ls.nextVT = vc.VC(m.vt)
}

// handleLockGrant runs at the requester: install the token, perform the
// protocol's acquire actions, and resume the processor.
func (s *System) handleLockGrant(p *Proc, m *msg) {
	ls := &p.locks[m.lock]
	if m.flag {
		// Token returned to the manager (centralized-lock ablation): absorb
		// the consistency information, then serve the next queued waiter.
		// The continuation can run after m is recycled (an LU fetch), so
		// it captures the lock, not the message.
		ls.present = true
		lock := m.lock
		s.prot.applyGrant(p, m.grant, func() {
			if len(ls.queue) > 0 && ls.present && !ls.held {
				w := ls.queue[0]
				ls.queue = ls.queue[1:]
				ls.present = false
				p.grantLock(lock, w.req, w.vt, false)
			}
		})
		return
	}
	ls.present = true
	ls.held = true
	if s.trace.Enabled() {
		s.trace.Add(s.eng.Now(), p.id, trace.LockGrant, int32(m.lock), m.src)
	}
	s.prot.applyGrant(p, m.grant, p.wake)
}
