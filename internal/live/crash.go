package live

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/node"
	"lrcdsm/internal/live/wire"
	"lrcdsm/internal/page"
	"lrcdsm/internal/vc"
)

// CrashEvent names the protocol event a Crash counts.
type CrashEvent uint8

const (
	// AtRelease counts the victim's releases that close a write interval
	// (IntervalClosed): lock releases and barrier arrivals after writes.
	AtRelease CrashEvent = iota
	// AtFault counts the whole cluster's page faults, for a victim that
	// may release nothing: a run's first faults come while every worker
	// is busy.
	AtFault
	// AtCkptConfirm counts the whole cluster's checkpoint confirmations
	// (ckpt-done frames sent): the kill lands while one is in flight.
	AtCkptConfirm
)

// Crash is one entry of a supervised run's kill schedule
// (RecoverOptions.Crashes): Node is killed at the Nth event of kind At
// and restarted RestartAfter later. Entries fire in order, and entry
// i+1 starts counting only once entry i's victim has rejoined, so no
// scheduled kill lands inside another's recovery. The events are
// protocol steps, so a change to the frame count does not move a kill,
// and a replaying worker emits none of them (its accesses go to scratch
// pages and its releases close no interval).
type Crash struct {
	Node         int
	At           CrashEvent
	N            int64
	RestartAfter time.Duration
}

// ParseCrashes reads the command-line kill schedule
// "node:n[:delay][,...]": kill node at its nth release, restart it
// after the optional delay.
func ParseCrashes(s string) ([]Crash, error) {
	var crashes []Crash
	for _, entry := range strings.Split(s, ",") {
		parts := strings.Split(entry, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("crash %q: want node:n[:delay]", entry)
		}
		v, errV := strconv.Atoi(parts[0])
		n, errN := strconv.ParseInt(parts[1], 10, 64)
		if errV != nil || errN != nil || v < 0 || n < 1 {
			return nil, fmt.Errorf("crash %q: bad node or release count", entry)
		}
		c := Crash{Node: v, At: AtRelease, N: n}
		if len(parts) == 3 {
			d, err := time.ParseDuration(parts[2])
			if err != nil {
				return nil, fmt.Errorf("crash %q: bad restart delay: %w", entry, err)
			}
			c.RestartAfter = d
		}
		crashes = append(crashes, c)
	}
	return crashes, nil
}

// scheduleCrashes checks a kill schedule and installs it as every
// node's Observer, ahead of Config.Observer. An empty schedule installs
// nothing and returns nil.
func (c *Cluster) scheduleCrashes(crashes []Crash) (*schedule, error) {
	for _, cr := range crashes {
		if cr.Node < 0 || cr.Node >= c.cfg.Nodes || cr.N < 1 {
			return nil, fmt.Errorf("live: crash %+v: want a node below %d and N >= 1", cr, c.cfg.Nodes)
		}
	}
	if len(crashes) == 0 {
		return nil, nil
	}
	s := &schedule{next: c.cfg.Observer, crashes: crashes, kill: c.kill, armed: true}
	s.live, _ = s.next.(node.LiveObserver)
	c.obs = s
	return s, nil
}

// schedule fires a kill schedule from the nodes' Observer hook and
// passes every event on to the caller's Observer, if any. A release
// fires under the victim's node mutex, a fault or ckpt-done frame
// outside it; kill takes no lock that anyone holds while waiting for a
// node mutex, so it runs inline: the victim dies at the event itself.
type schedule struct {
	next    core.Observer     // Config.Observer, nil when unset
	live    node.LiveObserver // next, when it takes the live-only events
	crashes []Crash
	kill    func(victim int, restartAfter time.Duration)

	mu    sync.Mutex
	pos   int   // the next entry to fire
	armed bool  // crashes[pos] is counting: its predecessor's victim has rejoined
	seen  int64 // events crashes[pos] has counted
}

func (s *schedule) count(at CrashEvent, n int) {
	s.mu.Lock()
	var fire *Crash
	if s.armed && s.pos < len(s.crashes) {
		c := &s.crashes[s.pos]
		if c.At == at && (at != AtRelease || c.Node == n) {
			if s.seen++; s.seen == c.N {
				fire, s.armed = c, false
				s.pos++
			}
		}
	}
	s.mu.Unlock()
	if fire != nil {
		s.kill(fire.Node, fire.RestartAfter)
	}
}

// rejoined arms the next entry: the last victim is back in the run.
func (s *schedule) rejoined() {
	s.mu.Lock()
	if !s.armed {
		s.armed, s.seen = true, 0
	}
	s.mu.Unlock()
}

func (s *schedule) MsgSent(from, to int, kind wire.Kind, bytes int) {
	if kind == wire.KCkptDone {
		s.count(AtCkptConfirm, from)
	}
	if s.live != nil {
		s.live.MsgSent(from, to, kind, bytes)
	}
}

func (s *schedule) PageFault(n int, pg page.ID) {
	s.count(AtFault, n)
	if s.live != nil {
		s.live.PageFault(n, pg)
	}
}

func (s *schedule) IntervalClosed(n int, idx int32, vt vc.VC, pages []page.ID) {
	s.count(AtRelease, n)
	s.fwd(func(o core.Observer) { o.IntervalClosed(n, idx, vt, pages) })
}

// fwd passes an event on to the caller's Observer, if any.
func (s *schedule) fwd(event func(core.Observer)) {
	if s.next != nil {
		event(s.next)
	}
}

func (s *schedule) TwinCreated(n int, pg page.ID) {
	s.fwd(func(o core.Observer) { o.TwinCreated(n, pg) })
}
func (s *schedule) ClockAdvanced(n int, vt vc.VC) {
	s.fwd(func(o core.Observer) { o.ClockAdvanced(n, vt) })
}
func (s *schedule) EagerFlushed(n int, epoch int32, pages []page.ID) {
	s.fwd(func(o core.Observer) { o.EagerFlushed(n, epoch, pages) })
}
func (s *schedule) DiffApplied(n int, pg page.ID, writer int, idx int32, vt vc.VC) {
	s.fwd(func(o core.Observer) { o.DiffApplied(n, pg, writer, idx, vt) })
}
func (s *schedule) CopyAdopted(n int, pg page.ID, copyVT []int32, cover vc.VC) {
	s.fwd(func(o core.Observer) { o.CopyAdopted(n, pg, copyVT, cover) })
}
func (s *schedule) BarrierDeparted(n int, episode int64, vt vc.VC) {
	s.fwd(func(o core.Observer) { o.BarrierDeparted(n, episode, vt) })
}
