package trace

import (
	"strings"
	"testing"

	"lrcdsm/internal/sim"
)

func int64SimTime(i int) sim.Time { return sim.Time(i) }

func TestDisabledLogDropsSilently(t *testing.T) {
	var l Log
	l.Add(1, 0, LockRequest, 5, -1)
	if l.Enabled() {
		t.Fatal("zero log should be disabled")
	}
	if got := l.Events(); got != nil {
		t.Fatalf("events = %v", got)
	}
	if l.Dropped() != 1 {
		t.Fatalf("dropped = %d", l.Dropped())
	}
}

func TestNilLogSafe(t *testing.T) {
	var l *Log
	if l.Enabled() {
		t.Fatal("nil log enabled")
	}
	if l.Events() != nil || l.Dropped() != 0 {
		t.Fatal("nil log should be inert")
	}
}

func TestRingKeepsLatest(t *testing.T) {
	l := New(3)
	for i := 0; i < 5; i++ {
		l.Add(int64SimTime(i), 0, PageFault, int32(i), -1)
	}
	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d", len(evs))
	}
	for i, e := range evs {
		if int(e.Arg) != i+2 {
			t.Fatalf("events = %v (want args 2,3,4)", evs)
		}
	}
	if l.Dropped() != 2 {
		t.Fatalf("dropped = %d", l.Dropped())
	}
}

func TestChronologicalOrderAcrossWrap(t *testing.T) {
	l := New(4)
	for i := 0; i < 10; i++ {
		l.Add(int64SimTime(i*7), 1, MsgSend, int32(i), 2)
	}
	evs := l.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("out of order: %v", evs)
		}
	}
}

func TestDumpAndSummary(t *testing.T) {
	l := New(16)
	l.Add(10, 0, LockRequest, 1, -1)
	l.Add(20, 1, LockGrant, 1, 0)
	l.Add(30, 1, PageFault, 9, -1)
	var sb strings.Builder
	l.Dump(&sb)
	out := sb.String()
	for _, want := range []string{"lock-req", "lock-grant", "fault", "peer=p0"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	s := l.Summarize()
	if s.ByKind[LockRequest] != 1 || s.ByProc[1] != 2 {
		t.Errorf("summary = %+v", s)
	}
	if s.Span != [2]sim.Time{10, 30} {
		t.Errorf("span = %v", s.Span)
	}
	sb.Reset()
	s.WriteSummary(&sb)
	if !strings.Contains(sb.String(), "lock-req") {
		t.Errorf("summary render: %s", sb.String())
	}
}

func TestKindString(t *testing.T) {
	if LockRequest.String() != "lock-req" || Kind(200).String() == "" {
		t.Fatal("kind names")
	}
}
