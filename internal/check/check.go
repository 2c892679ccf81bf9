// Package check is the runtime invariant checker for the DSM protocols:
// a core.Observer that maintains an independent shadow of the protocol
// bookkeeping from the event stream and reports any violation of the
// release-consistency invariants the simulation's results rest on:
//
//   - vector clocks advance monotonically and interval indices are
//     contiguous per processor (IntervalClosed, ClockAdvanced);
//   - every page twinned during an interval is covered by the interval's
//     write notices — a diff can never be silently dropped (TwinCreated
//     vs IntervalClosed/EagerFlushed);
//   - diffs are applied respecting happened-before: when a processor
//     incorporates an interval's diff of a page, every interval that
//     happened before it and that the writer's copy of the page held
//     when the interval closed is already incorporated (DiffApplied,
//     seeded by CopyAdopted);
//   - barrier episodes are delivered in order with one merged vector time
//     per episode (BarrierDeparted);
//   - end-of-run memory equals a 1-processor reference run over the
//     application's declared result regions (CompareRegions).
//
// Violations carry the processor, interval, page and vector clock involved
// so a failure localizes the protocol bug rather than just flagging it.
package check

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"lrcdsm/internal/core"
	"lrcdsm/internal/page"
	"lrcdsm/internal/vc"
)

// FloatTol is the relative tolerance used when comparing float result
// regions: parallel runs may sum floating-point contributions in a
// different order than the 1-processor reference.
const FloatTol = 1e-9

// maxStored caps the retained violations; the total is always counted.
const maxStored = 100

// Violation is one detected invariant breach.
type Violation struct {
	Kind     string  // "clock" | "interval" | "coverage" | "hb" | "episode" | "memory"
	Proc     int     // processor involved, -1 if not applicable
	Interval int32   // interval index involved, -1 if not applicable
	Page     page.ID // page involved, -1 if not applicable
	VC       vc.VC   // clock involved, nil if not applicable
	Detail   string
}

func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "check[%s]", v.Kind)
	if v.Proc >= 0 {
		fmt.Fprintf(&b, " proc=%d", v.Proc)
	}
	if v.Interval >= 0 {
		fmt.Fprintf(&b, " interval=%d", v.Interval)
	}
	if v.Page >= 0 {
		fmt.Fprintf(&b, " page=%d", v.Page)
	}
	if v.VC != nil {
		fmt.Fprintf(&b, " vc=%v", []int32(v.VC))
	}
	fmt.Fprintf(&b, ": %s", v.Detail)
	return b.String()
}

// intervalInfo is the checker's record of one closed interval; obl is
// the obligation its diff of each page carries (see DiffApplied).
type intervalInfo struct {
	vt  vc.VC
	obl map[page.ID]vc.VC
}

// copyState shadows one processor's copy of one page: the contiguous
// per-writer base and coverage adopted from page fetches, plus the set of
// individually incorporated intervals. A copy only ever gains intervals,
// so done[w] counts the leading entries of the page's writer-w list that
// DiffApplied has found incorporated, and it never scans them again.
type copyState struct {
	base    []int32
	cover   vc.VC
	applied map[int64]bool
	done    []int
}

func ikey(proc int, idx int32) int64 { return int64(proc)<<32 | int64(uint32(idx)) }

// Checker implements core.Observer. Install via core.Config.Observer (the
// harness does this under Spec.Check); one Checker observes one System.
type Checker struct {
	mu sync.Mutex
	n  int

	total      int
	violations []Violation

	lastVT      []vc.VC
	lastIdx     []int32
	lastEpoch   []int32
	twinned     []map[page.ID]bool
	intervals   map[int64]*intervalInfo
	pageWriters map[page.ID][][]int32 // pg -> per-writer sorted interval indices
	copies      []map[page.ID]*copyState
	lastEpisode []int64
	episodeVT   map[int64]vc.VC
	applied     int // DiffApplied events seen
}

var _ core.Observer = (*Checker)(nil)

// New returns a Checker for an n-processor system.
func New(n int) *Checker {
	c := &Checker{
		n:           n,
		lastVT:      make([]vc.VC, n),
		lastIdx:     make([]int32, n),
		lastEpoch:   make([]int32, n),
		twinned:     make([]map[page.ID]bool, n),
		intervals:   make(map[int64]*intervalInfo),
		pageWriters: make(map[page.ID][][]int32),
		copies:      make([]map[page.ID]*copyState, n),
		lastEpisode: make([]int64, n),
		episodeVT:   make(map[int64]vc.VC),
	}
	for i := 0; i < n; i++ {
		c.twinned[i] = make(map[page.ID]bool)
		c.copies[i] = make(map[page.ID]*copyState)
		// Barrier episodes are numbered from 1 (the master increments
		// before the first departure).
		c.lastEpisode[i] = 0
	}
	return c
}

func (c *Checker) report(v Violation) {
	c.total++
	if len(c.violations) < maxStored {
		c.violations = append(c.violations, v)
	}
}

// Violations returns the retained violations (at most 100; Count gives the
// full total).
func (c *Checker) Violations() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Violation(nil), c.violations...)
}

// Count returns the total number of violations detected.
func (c *Checker) Count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Err returns nil if no violations were detected, else an error
// summarizing the first few.
func (c *Checker) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.total == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d invariant violation(s):", c.total)
	for i, v := range c.violations {
		if i == 5 {
			fmt.Fprintf(&b, "\n  ... (%d more)", c.total-i)
			break
		}
		fmt.Fprintf(&b, "\n  %s", v.String())
	}
	return fmt.Errorf("%s", b.String())
}

func (c *Checker) copyState(proc int, pg page.ID) *copyState {
	cs := c.copies[proc][pg]
	if cs == nil {
		cs = &copyState{applied: make(map[int64]bool), done: make([]int, c.n)}
		c.copies[proc][pg] = cs
	}
	return cs
}

// ---- core.Observer ----

// TwinCreated records that proc's current interval modifies pg.
func (c *Checker) TwinCreated(proc int, pg page.ID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.twinned[proc][pg] = true
}

// IntervalClosed validates interval-index contiguity, vector-clock
// monotonicity, and write-notice coverage of every twinned page, then
// registers the interval for later happened-before checks.
func (c *Checker) IntervalClosed(proc int, idx int32, vt vc.VC, pages []page.ID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if idx != c.lastIdx[proc]+1 {
		c.report(Violation{Kind: "interval", Proc: proc, Interval: idx, Page: -1, VC: vt,
			Detail: fmt.Sprintf("interval index not contiguous: previous was %d", c.lastIdx[proc])})
	}
	c.lastIdx[proc] = idx
	if vt.Get(proc) != idx {
		c.report(Violation{Kind: "clock", Proc: proc, Interval: idx, Page: -1, VC: vt,
			Detail: fmt.Sprintf("interval timestamp's own slot is %d, want %d", vt.Get(proc), idx)})
	}
	c.checkClock(proc, idx, vt)

	covered := make(map[page.ID]bool, len(pages))
	for _, pg := range pages {
		covered[pg] = true
		if !c.twinned[proc][pg] {
			c.report(Violation{Kind: "coverage", Proc: proc, Interval: idx, Page: pg, VC: vt,
				Detail: "write notice for a page the interval never twinned"})
		}
	}
	for pg := range c.twinned[proc] {
		if !covered[pg] {
			c.report(Violation{Kind: "coverage", Proc: proc, Interval: idx, Page: pg, VC: vt,
				Detail: "twinned page not covered by any write notice of the closing interval"})
		}
	}
	c.twinned[proc] = make(map[page.ID]bool)

	info := &intervalInfo{vt: vt, obl: make(map[page.ID]vc.VC, len(pages))}
	c.intervals[ikey(proc, idx)] = info
	for _, pg := range pages {
		ws := c.pageWriters[pg]
		if ws == nil {
			ws = make([][]int32, c.n)
			c.pageWriters[pg] = ws
		}
		// Per writer, the latest interval of pg that vt covers and the
		// closer's copy holds.
		cs, obl := c.copyState(proc, pg), vc.New(c.n)
		for w := range ws {
			for i := len(ws[w]) - 1; i >= 0; i-- {
				if wi := ws[w][i]; wi <= vt.Get(w) && c.satisfied(cs, w, wi) {
					obl.Set(w, wi)
					break
				}
			}
		}
		info.obl[pg] = obl
		ws[proc] = append(ws[proc], idx)
		// The creator's own copy incorporates its own writes.
		cs.applied[ikey(proc, idx)] = true
	}
}

// EagerFlushed validates epoch ordering and write-notice coverage for the
// eager protocols' (clock-free) modification episodes.
func (c *Checker) EagerFlushed(proc int, epoch int32, pages []page.ID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch <= c.lastEpoch[proc] {
		c.report(Violation{Kind: "interval", Proc: proc, Interval: epoch, Page: -1,
			Detail: fmt.Sprintf("eager flush epoch not increasing: previous was %d", c.lastEpoch[proc])})
	}
	c.lastEpoch[proc] = epoch
	covered := make(map[page.ID]bool, len(pages))
	for _, pg := range pages {
		covered[pg] = true
	}
	for pg := range c.twinned[proc] {
		if !covered[pg] {
			c.report(Violation{Kind: "coverage", Proc: proc, Interval: epoch, Page: pg,
				Detail: "twinned page not covered by the eager flush"})
		}
	}
	c.twinned[proc] = make(map[page.ID]bool)
}

// ClockAdvanced validates per-processor vector-clock monotonicity.
func (c *Checker) ClockAdvanced(proc int, vt vc.VC) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checkClock(proc, -1, vt)
}

func (c *Checker) checkClock(proc int, interval int32, vt vc.VC) {
	if prev := c.lastVT[proc]; prev != nil && !vt.Covers(prev) {
		c.report(Violation{Kind: "clock", Proc: proc, Interval: interval, Page: -1, VC: vt,
			Detail: fmt.Sprintf("vector clock regressed: previous %v not covered", []int32(prev))})
	}
	c.lastVT[proc] = vt.Clone()
}

// DiffApplied validates that incorporating writer's interval idx into
// proc's copy of pg respects happened-before: every interval that wrote pg
// and happened before (writer, idx) — as far as the applier can know about
// it — must already be incorporated. The obligation is capped by the
// applier's own vector time: LH/LU update pushes deliver diffs ahead of
// the receiver's clock (no acquire, no vt join), and such early diffs
// carry no ordering obligation for predecessors the receiver has never
// heard of (repairDominators restores word order when the stragglers
// arrive). Below the applier's vt the notice set is provably complete, so
// there the check is exact. Eager diffs carry no obligation.
//
// One rule holds both engines: the predecessors are the intervals of pg
// the interval's vector time covers and the writer's copy of pg held when
// it closed (IntervalClosed records them). An acquire does not close an
// interval, so a writer can dirty pg, learn of another writer's interval
// of pg and not touch pg again: its diff depends on nothing in that
// notice, and a live home applies flushes in arrival order. A live copy
// takes intervals only from the home, so the home held them first
// (DESIGN.md §8.2). A nil vt means the diff travelled without its
// timestamp, as every live diff does. A diff of an interval the checker
// has not seen close is a violation itself: a peer acted on it first.
func (c *Checker) DiffApplied(proc int, pg page.ID, writer int, idx int32, vt vc.VC) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.applied++
	cs := c.copyState(proc, pg)
	if info := c.intervals[ikey(writer, idx)]; info != nil && info.obl[pg] != nil {
		vt = info.obl[pg]
	} else if vt == nil && idx > c.lastEpoch[writer] {
		c.report(Violation{Kind: "hb", Proc: proc, Interval: idx, Page: pg,
			Detail: fmt.Sprintf("diff of (proc %d, interval %d) applied before the interval closed", writer, idx)})
	}
	if vt != nil && c.lastVT[proc] != nil {
		own := c.lastVT[proc]
		ws := c.pageWriters[pg]
		for w := 0; w < c.n && ws != nil; w++ {
			limit := vt.Get(w)
			if w == writer && idx-1 < limit {
				limit = idx - 1
			}
			if o := own.Get(w); o < limit {
				limit = o
			}
			for i := cs.done[w]; i < len(ws[w]) && ws[w][i] <= limit; i++ {
				if wi := ws[w][i]; !c.satisfied(cs, w, wi) {
					c.report(Violation{Kind: "hb", Proc: proc, Interval: idx, Page: pg, VC: vt,
						Detail: fmt.Sprintf("diff of (proc %d, interval %d) applied before its happened-before predecessor (proc %d, interval %d)", writer, idx, w, wi)})
				} else if i == cs.done[w] {
					cs.done[w]++
				}
			}
		}
	}
	cs.applied[ikey(writer, idx)] = true
}

// satisfied reports whether writer w's interval wi is incorporated in cs:
// individually applied, below the adopted contiguous base, or covered by
// an adopted copy's coverage vector.
func (c *Checker) satisfied(cs *copyState, w int, wi int32) bool {
	if cs.applied[ikey(w, wi)] {
		return true
	}
	if cs.base != nil && wi <= cs.base[w] {
		return true
	}
	if cs.cover != nil {
		if info := c.intervals[ikey(w, wi)]; info != nil && info.vt != nil && cs.cover.Covers(info.vt) {
			return true
		}
	}
	return false
}

// Seen returns how many intervals closed and how many diff applications
// the checker has observed: one that saw none has checked nothing.
func (c *Checker) Seen() (intervals, diffs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.intervals), c.applied
}

// CopyAdopted records the coverage of a fetched page image.
func (c *Checker) CopyAdopted(proc int, pg page.ID, copyVT []int32, cover vc.VC) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs := c.copyState(proc, pg)
	if copyVT != nil {
		if cs.base == nil {
			cs.base = make([]int32, c.n)
		}
		for w, idx := range copyVT {
			if idx > cs.base[w] {
				cs.base[w] = idx
			}
		}
	}
	if cover != nil {
		if cs.cover == nil {
			cs.cover = vc.New(c.n)
		}
		cs.cover.Join(cover)
	}
}

// BarrierDeparted validates episode ordering and that all processors
// depart an episode with the same merged vector time.
func (c *Checker) BarrierDeparted(proc int, episode int64, vt vc.VC) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if episode != c.lastEpisode[proc]+1 {
		c.report(Violation{Kind: "episode", Proc: proc, Interval: int32(episode), Page: -1, VC: vt,
			Detail: fmt.Sprintf("barrier episode out of order: previous was %d", c.lastEpisode[proc])})
	}
	c.lastEpisode[proc] = episode
	if vt == nil {
		return
	}
	if seen, ok := c.episodeVT[episode]; ok {
		if !seen.Covers(vt) || !vt.Covers(seen) {
			c.report(Violation{Kind: "episode", Proc: proc, Interval: int32(episode), Page: -1, VC: vt,
				Detail: fmt.Sprintf("episode vector time differs across processors: first seen %v", []int32(seen))})
		}
	} else {
		c.episodeVT[episode] = vt.Clone()
	}
}

// ---- memory equivalence ----

// CompareRegions compares the declared result regions of a run against a
// reference run (normally 1 processor, whose execution is sequential):
// words must match exactly, except Float regions, which may differ by
// FloatTol relative error to allow for summation-order differences.
// Violations are reported per word, capped at 10 per region. Both engines
// (core.System and live.Cluster) satisfy core.Peeker, so live runs can be
// validated against simulated or 1-node live references.
func CompareRegions(got, want core.Peeker, regions []core.ResultRegion) []Violation {
	var out []Violation
	for _, r := range regions {
		mismatches := 0
		for w := 0; w < r.Words; w++ {
			a := got.PeekU64(r.Base + core.Addr(8*w))
			b := want.PeekU64(r.Base + core.Addr(8*w))
			if a == b {
				continue
			}
			if r.Float && floatClose(a, b) {
				continue
			}
			mismatches++
			if mismatches <= 10 {
				out = append(out, Violation{Kind: "memory", Proc: -1, Interval: -1, Page: -1,
					Detail: fmt.Sprintf("region %q word %d (addr %#x): got %#x, reference %#x",
						r.Name, w, uint64(r.Base)+uint64(8*w), a, b)})
			}
		}
		if mismatches > 10 {
			out = append(out, Violation{Kind: "memory", Proc: -1, Interval: -1, Page: -1,
				Detail: fmt.Sprintf("region %q: %d further mismatching words", r.Name, mismatches-10)})
		}
	}
	return out
}

func floatClose(a, b uint64) bool {
	fa, fb := f64(a), f64(b)
	if fa == fb {
		return true
	}
	diff := fa - fb
	if diff < 0 {
		diff = -diff
	}
	ref := abs64(fa)
	if r := abs64(fb); r > ref {
		ref = r
	}
	return diff <= FloatTol*ref
}

func f64(u uint64) float64 { return math.Float64frombits(u) }

func abs64(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// SortViolations orders violations for stable reporting.
func SortViolations(vs []Violation) {
	sort.SliceStable(vs, func(i, j int) bool {
		if vs[i].Kind != vs[j].Kind {
			return vs[i].Kind < vs[j].Kind
		}
		if vs[i].Proc != vs[j].Proc {
			return vs[i].Proc < vs[j].Proc
		}
		return vs[i].Interval < vs[j].Interval
	})
}
