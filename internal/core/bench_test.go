package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"lrcdsm/internal/page"
	"lrcdsm/internal/vc"
)

// hotPageInterval is writer 1's idx-th interval on page 0 in a two-processor
// system: one word written, everything before it seen.
func hotPageInterval(idx int32, pageSize int) *intervalRec {
	const pg = page.ID(0)
	twin, cur := page.NewBuf(pageSize), page.NewBuf(pageSize)
	cur.PutU64(0, uint64(idx))
	return &intervalRec{
		proc: 1, idx: idx, vt: vc.VC{0, idx},
		pages: []page.ID{pg},
		diffs: []page.Diff{page.MakeDiff(pg, twin, cur)},
	}
}

// BenchmarkHotPageApply measures the host cost of incorporating the next
// lock-ordered diff into a page that already carries n write notices —
// cholesky's task-queue page late in a run. Each iteration applies interval
// n+1 and then forgets it, so the page holds exactly n earlier notices
// every time.
func BenchmarkHotPageApply(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("notices=%d", n), func(b *testing.B) {
			const pg, w = page.ID(0), 1
			p := newBareProc(b, 2, 1)
			ps := &p.pages[pg]
			pageSize := p.sys.cfg.PageSize
			for idx := int32(1); idx <= int32(n); idx++ {
				rec := hotPageInterval(idx, pageSize)
				p.insertRec(rec)
				p.vt.Join(rec.vt)
				if !p.applyTagged(taggedDiff{rec: rec, pg: pg}) {
					b.Fatalf("interval %d not incorporated", idx)
				}
			}
			next := hotPageInterval(int32(n)+1, pageSize)
			td := taggedDiff{rec: next, pg: pg}
			seen, covered := p.vt.Clone(), ps.coverVC.Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.insertRec(next)
				p.vt.Join(next.vt)
				if !p.applyTagged(td) {
					b.Fatal("next interval not incorporated")
				}
				delete(p.recByKey, recKey(w, next.idx))
				p.recsByProc[w] = p.recsByProc[w][:n]
				ps.notices[w] = ps.notices[w][:n]
				ps.copyVT[w] = int32(n)
				copy(p.vt, seen)
				copy(ps.coverVC, covered)
			}
			b.StopTimer()
			if len(ps.notices[w]) != n || len(ps.extraApplied[w]) != 0 || ps.applied(w, next.idx) {
				b.Fatalf("page drifted: %d notices, overflow %v", len(ps.notices[w]), ps.extraApplied[w])
			}
		})
	}
}

// runSmallApp builds a system of procs processors at the paper's page size
// and address-space cap, allocates a 64-page application and runs a worker
// that touches nothing.
func runSmallApp(tb testing.TB, procs int) {
	cfg := DefaultConfig()
	cfg.Procs = procs
	s, err := NewSystem(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	s.AllocPage(64 * cfg.PageSize)
	if _, err := s.Run(func(*Proc) {}); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkNewSystem reports what a simulated machine costs the host
// before the application does anything: B/op is the footprint of one
// 64-page cell.
func BenchmarkNewSystem(b *testing.B) {
	for _, procs := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runSmallApp(b, procs)
			}
		})
	}
}

// TestFootprintFollowsAllocation: page state is sized by what the
// application allocated, not by the address-space cap. A 16-processor
// system over 64 pages used to allocate ~50 MB before running anything.
func TestFootprintFollowsAllocation(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runSmallApp(t, 16)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Fatalf("a 16-processor system over a 64-page allocation allocated %d bytes, want under 4 MiB", got)
	}
}

// TestAccessBeyondAllocationPanics: the allocator's break bounds the page
// tables, so an access past the last allocated page is out of range even
// though it is far below MaxSharedBytes.
func TestAccessBeyondAllocationPanics(t *testing.T) {
	cfg := testConfig(LH, 2)
	s := mustSystem(t, cfg)
	a := s.AllocPage(3 * cfg.PageSize)
	beyond := a + Addr(3*cfg.PageSize)
	defer func() {
		r := recover()
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "out of range") {
			t.Fatalf("recovered %v, want an out of range panic", r)
		}
	}()
	_, _ = s.Run(func(p *Proc) {
		p.ReadU64(beyond - 8) // last allocated word: fine
		if p.ID() == 0 {
			p.ReadU64(beyond)
		}
	})
	t.Fatal("access beyond the last allocated page did not panic")
}

// dirtyPages twins and writes one word of each of the first k pages of
// p, the way a write fault does, ready for the interval to close.
func dirtyPages(p *Proc, k int, v uint64) {
	for pg := page.ID(0); pg < page.ID(k); pg++ {
		ps := &p.pages[pg]
		ps.twin = page.NewTwin(ps.data)
		ps.data.PutU64(0, v)
		p.modList = append(p.modList, pg)
	}
}

// BenchmarkCloseInterval reports what closing an interval that dirtied k
// pages costs the host, the record retained for the rest of the run
// included: B/op is the record, its diffs and the notice bookkeeping.
func BenchmarkCloseInterval(b *testing.B) {
	for _, k := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("pages=%d", k), func(b *testing.B) {
			p := newBareProc(b, 1, 64)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dirtyPages(p, k, uint64(i+1))
				if p.closeInterval() == nil {
					b.Fatal("no interval closed")
				}
			}
		})
	}
}

// lockedWrites runs an LI system of two processors in which each closes n
// one-page intervals under its own lock and returns the bytes the run
// allocated.
func lockedWrites(tb testing.TB, n int) uint64 {
	cfg := testConfig(LI, 2)
	s, err := NewSystem(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	a := s.AllocPage(2 * cfg.PageSize)
	l := s.NewLocks(2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := s.Run(func(p *Proc) {
		at := a + Addr(p.ID()*cfg.PageSize)
		for i := 0; i < n; i++ {
			p.Lock(l + p.ID())
			p.WriteU64(at, uint64(i))
			p.Unlock(l + p.ID())
		}
	}); err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestIntervalFootprint: a closed interval costs the host its record, its
// diff and its notice, not a hash map. The lazy protocols keep every
// record for the whole run, so this is what a long simulation retains.
func TestIntervalFootprint(t *testing.T) {
	const lo, hi = 500, 2500
	per := float64(lockedWrites(t, hi)-lockedWrites(t, lo)) / (2 * (hi - lo))
	t.Logf("%.0f bytes allocated per closed one-page interval", per)
	if per > 480 {
		t.Fatalf("%.0f bytes allocated per closed one-page interval, want at most 480", per)
	}
}

// lockPingPong runs a two-processor system under prot in which the
// processors alternate on one lock n times each and returns the bytes the
// run allocated and the messages it sent. The computation after each
// release outlasts a lock hand-off, so every acquire takes the lock from
// the other processor: a request, a forward unless the lock's manager
// holds the token, and a grant, with no data.
func lockPingPong(tb testing.TB, prot Protocol, n int) (uint64, int64) {
	cfg := testConfig(prot, 2)
	s, err := NewSystem(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	l := s.NewLock()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := s.Run(func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Lock(l)
			p.Unlock(l)
			p.Compute(100000)
		}
	})
	if err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, st.Msgs
}

// TestMessageFootprint: a simulated message costs the host no allocation
// of its own. A send copies its message into a recycled slot that is its
// own simulation event, so the marginal bytes per message between a short
// and a long lock ping-pong are only what the protocol keeps (a lazy
// request's vector time, a grant). A message struct and two closures per
// message come to ~500 bytes.
func TestMessageFootprint(t *testing.T) {
	const lo, hi = 500, 2500
	for _, prot := range []Protocol{LI, LH, EI} {
		loBytes, loMsgs := lockPingPong(t, prot, lo)
		hiBytes, hiMsgs := lockPingPong(t, prot, hi)
		if hiMsgs <= loMsgs {
			t.Fatalf("%v: %d messages at %d rounds, %d at %d", prot, hiMsgs, hi, loMsgs, lo)
		}
		per := (float64(hiBytes) - float64(loBytes)) / float64(hiMsgs-loMsgs)
		t.Logf("%v: %.0f bytes allocated per simulated message (%d messages at %d rounds)", prot, per, hiMsgs, hi)
		if per > 128 {
			t.Errorf("%v: %.0f bytes allocated per simulated message, want at most 128", prot, per)
		}
	}
}
