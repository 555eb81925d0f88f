package trace

import (
	"strings"
	"testing"

	"ib12x/internal/sim"
)

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(0, KindEager, 0, 1, 10, 0) // must not panic
	if r.Len() != 0 || r.Events() != nil {
		t.Error("nil recorder should be empty")
	}
}

func TestRecordAndTimeline(t *testing.T) {
	r := NewRecorder(0)
	r.Record(2*sim.Microsecond, KindCTS, 1, 0, 64, -1)
	r.Record(1*sim.Microsecond, KindRTS, 0, 1, 4096, -1)
	r.Record(3*sim.Microsecond, KindStripeWrite, 0, 1, 1024, 2)
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	evs := r.Events()
	if evs[0].Kind != KindRTS || evs[1].Kind != KindCTS || evs[2].Kind != KindStripeWrite {
		t.Errorf("events not time-sorted: %+v", evs)
	}
	tl := r.Timeline(0)
	if !strings.Contains(tl, "RTS") || !strings.Contains(tl, "WRITE") || !strings.Contains(tl, "r2") {
		t.Errorf("timeline missing content:\n%s", tl)
	}
	if lines := strings.Count(tl, "\n"); lines != 3 {
		t.Errorf("timeline lines = %d", lines)
	}
	if short := r.Timeline(1); strings.Count(short, "\n") != 1 {
		t.Error("Timeline(max) did not truncate")
	}
}

func TestRecorderLimit(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Record(sim.Time(i), KindEager, 0, 1, 1, 0)
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want capped at 2", r.Len())
	}
}

func TestRecorderDropCount(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 7; i++ {
		r.Record(sim.Time(i), KindEager, 0, 1, 1, 0)
	}
	if r.Len() != 4 || r.Dropped() != 3 {
		t.Fatalf("Len = %d, Dropped = %d, want 4 kept and 3 dropped", r.Len(), r.Dropped())
	}
	if s := r.Summary(); !strings.Contains(s, "DROPPED") || !strings.Contains(s, " 3 events") {
		t.Errorf("summary does not report the drops:\n%s", s)
	}
}

func TestSummary(t *testing.T) {
	r := NewRecorder(0)
	r.Record(0, KindEager, 0, 1, 100, 0)
	r.Record(1, KindEager, 1, 0, 200, 1)
	r.Record(2, KindFIN, 0, 1, 0, -1)
	s := r.Summary()
	if !strings.Contains(s, "EAGER") || !strings.Contains(s, "300 bytes") {
		t.Errorf("summary wrong:\n%s", s)
	}
	if !strings.Contains(s, "FIN") {
		t.Errorf("summary missing FIN:\n%s", s)
	}
	if strings.Contains(s, "DROPPED") {
		t.Errorf("summary reports drops with none:\n%s", s)
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindEager; k <= KindRMA; k++ {
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d has no name", int(k))
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind string wrong")
	}
}
