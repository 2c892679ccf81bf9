package core

import (
	"testing"

	"lrcdsm/internal/page"
)

// shuffledPages is a dirty set out of page-ID order: a record's pages
// keep the order the interval first wrote them in.
var shuffledPages = []page.ID{5, 2, 7, 0}

// dirtyShuffled twins and writes each of shuffledPages on p, word pg of
// page pg set to pageValue(pg).
func dirtyShuffled(p *Proc) {
	for _, pg := range shuffledPages {
		ps := &p.pages[pg]
		ps.twin = page.NewTwin(ps.data)
		ps.data.PutU64(int(pg)*page.WordSize, pageValue(pg))
		p.modList = append(p.modList, pg)
	}
}

func pageValue(pg page.ID) uint64 { return 100 + uint64(pg) }

// checkTagged fails unless td carries the diff of its own page: the one
// word the interval wrote there, at its slot in the record.
func checkTagged(t *testing.T, site string, td taggedDiff) {
	t.Helper()
	if td.rec.pages[td.slot] != td.pg {
		t.Fatalf("%s: slot %d of the record is page %d, tagged page %d", site, td.slot, td.rec.pages[td.slot], td.pg)
	}
	d := td.diff()
	if d.Page != td.pg {
		t.Fatalf("%s: page %d looked up the diff of page %d", site, td.pg, d.Page)
	}
	buf := page.NewBuf(256)
	d.Apply(buf)
	if got := buf.U64(int(td.pg) * page.WordSize); got != pageValue(td.pg) {
		t.Fatalf("%s: page %d's diff writes %d, want %d", site, td.pg, got, pageValue(td.pg))
	}
}

// TestRecordLookupOutOfPageOrder: every site that labels a record's diff
// finds the diff of the page it names, when the record's pages are not in
// page-ID order.
func TestRecordLookupOutOfPageOrder(t *testing.T) {
	t.Run("closeInterval", func(t *testing.T) {
		p := newBareProc(t, 1, 8)
		dirtyShuffled(p)
		rec := p.closeInterval()
		if len(rec.pages) != len(shuffledPages) || len(rec.diffs) != len(rec.pages) {
			t.Fatalf("record has %d pages and %d diffs, want %d of each", len(rec.pages), len(rec.diffs), len(shuffledPages))
		}
		for i, pg := range shuffledPages {
			if rec.pages[i] != pg {
				t.Fatalf("record pages %v, want the write order %v", rec.pages, shuffledPages)
			}
			td := rec.tag(pg)
			if td.slot != int32(i) {
				t.Fatalf("page %d tagged at slot %d, want %d", pg, td.slot, i)
			}
			checkTagged(t, "tag", td)
			// The sites that look a page up in the notices: a peer that
			// has seen nothing is served the one diff.
			ds := p.servableDiffs(pg, make([]int32, 1), nil)
			if len(ds) != 1 {
				t.Fatalf("page %d: %d servable diffs, want 1", pg, len(ds))
			}
			checkTagged(t, "servableDiffs", ds[0])
		}
	})
	t.Run("flushModified", func(t *testing.T) {
		p := newBareProc(t, 1, 8)
		dirtyShuffled(p)
		tds := p.flushModified()
		if len(tds) != len(shuffledPages) {
			t.Fatalf("%d tagged diffs, want %d", len(tds), len(shuffledPages))
		}
		for i, td := range tds {
			if td.pg != shuffledPages[i] {
				t.Fatalf("tagged diff %d is page %d, want %d", i, td.pg, shuffledPages[i])
			}
			checkTagged(t, "flushModified", td)
		}
	})
	t.Run("EI ack", func(t *testing.T) {
		// Processor 1 fetches page 1 from its owner, processor 0, writes
		// word 1 under lock 1 and holds it; processor 0 then writes word 0
		// under lock 0 and releases. The invalidation finds processor 1's
		// copy dirty, and the ack's one-page record alone carries word 1
		// into processor 0's copy before its release returns.
		const pg = 1
		cfg := testConfig(EI, 2)
		s := mustSystem(t, cfg)
		base := s.AllocPage(8 * cfg.PageSize)
		at := base + Addr(pg*cfg.PageSize)
		lk := s.NewLocks(2)
		var merged uint64
		st := run(t, s, func(p *Proc) {
			me := p.ID()
			if me == 0 {
				p.Compute(100_000)
			}
			p.Lock(lk + me)
			p.WriteU64(at+Addr(8*me), uint64(10+me))
			if me == 1 {
				p.Compute(1_000_000)
			}
			p.Unlock(lk + me)
			if me == 0 {
				merged = p.pages[pg].data.U64(8)
			}
		})
		// One diff per release and one in the ack.
		if st.DiffsCreated != 3 {
			t.Fatalf("%d diffs created, want 3: the run did not take the dirty invalidation path", st.DiffsCreated)
		}
		if merged != 11 {
			t.Fatalf("after its release processor 0's copy of page %d holds %d in word 1, want processor 1's 11", pg, merged)
		}
	})
}
