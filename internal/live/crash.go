package live

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"lrcdsm/internal/live/node"
	"lrcdsm/internal/live/wire"
	"lrcdsm/internal/page"
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
	s := &schedule{Observer: nopObserver{}, crashes: crashes, kill: c.kill, armed: true}
	if c.cfg.Observer != nil {
		s.Observer = c.cfg.Observer
	}
	c.obs = s
	return s, nil
}

// schedule fires a kill schedule from the nodes' Observer hook and
// passes every event on to the embedded caller's Observer. Each counted
// event fires on a worker or lane goroutine outside the node's locks,
// so the kill runs inline: the victim dies at the event itself.
type schedule struct {
	node.Observer
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
	s.Observer.MsgSent(from, to, kind, bytes)
}

func (s *schedule) PageFault(n int, pg page.ID) {
	s.count(AtFault, n)
	s.Observer.PageFault(n, pg)
}

func (s *schedule) IntervalClosed(n int, idx int32, pages []page.ID) {
	s.count(AtRelease, n)
	s.Observer.IntervalClosed(n, idx, pages)
}

// nopObserver ignores every event: the schedule's successor when
// Config.Observer is unset.
type nopObserver struct{}

func (nopObserver) MsgSent(int, int, wire.Kind, int)     {}
func (nopObserver) PageFault(int, page.ID)               {}
func (nopObserver) IntervalClosed(int, int32, []page.ID) {}
func (nopObserver) DiffApplied(int, page.ID, int, int32) {}
func (nopObserver) Invalidated(int, page.ID)             {}
func (nopObserver) BarrierDeparted(int, int64)           {}
