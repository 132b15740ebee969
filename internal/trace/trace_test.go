package trace

import (
	"io"
	"strings"
	"testing"

	"emeralds/internal/vtime"
)

func TestAddAndEvents(t *testing.T) {
	l := New(10)
	l.Add(1, Release, "a", "")
	l.Add(2, Dispatch, "a", "")
	evs := l.Events()
	if len(evs) != 2 || evs[0].Kind != Release || evs[1].Kind != Dispatch {
		t.Errorf("events = %v", evs)
	}
	if l.Total() != 2 {
		t.Errorf("total = %d", l.Total())
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	l := New(4)
	for i := 0; i < 10; i++ {
		l.Add(vtime.Time(i), Dispatch, "x", "")
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("retained = %d", len(evs))
	}
	for i, e := range evs {
		if e.At != vtime.Time(6+i) {
			t.Errorf("event %d at %v, want %v (chronological, newest window)", i, e.At, vtime.Time(6+i))
		}
	}
	if l.Total() != 10 {
		t.Errorf("total = %d", l.Total())
	}
}

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Add(0, Miss, "x", "") // must not panic
	l.Addf(0, Miss, "x", "%d", 1)
	if l.Events() != nil || l.Total() != 0 {
		t.Error("nil log should be empty")
	}
}

func TestFilter(t *testing.T) {
	l := New(16)
	l.Add(1, Release, "a", "")
	l.Add(2, Miss, "b", "")
	l.Add(3, Release, "c", "")
	rel := l.Filter(Release)
	if len(rel) != 2 || rel[0].Task != "a" || rel[1].Task != "c" {
		t.Errorf("filter = %v", rel)
	}
	if len(l.Filter(Fault)) != 0 {
		t.Error("empty filter should be empty")
	}
}

func TestDump(t *testing.T) {
	l := New(4)
	l.Add(vtime.Time(vtime.Millisecond), SemAcquire, "enc", "cfg")
	var b strings.Builder
	l.Dump(&b)
	out := b.String()
	for _, frag := range []string{"sem-acquire", "enc", "cfg", "1.000ms"} {
		if !strings.Contains(out, frag) {
			t.Errorf("dump %q missing %q", out, frag)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k := Release; k <= Idle; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("kind %d unnamed", k)
		}
	}
	if !strings.HasPrefix(Kind(99).String(), "kind(") {
		t.Error("unknown kind should fall back")
	}
}

func TestDefaultCapacity(t *testing.T) {
	l := New(0)
	for i := 0; i < 2000; i++ {
		l.Add(vtime.Time(i), Dispatch, "x", "")
	}
	if len(l.Events()) != 1024 {
		t.Errorf("default cap retained %d", len(l.Events()))
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: vtime.Time(vtime.Millisecond), Kind: Miss, Task: "tau05"}
	if !strings.Contains(e.String(), "MISS") || !strings.Contains(e.String(), "tau05") {
		t.Errorf("event string %q", e.String())
	}
}

func TestStreamForwardsInsteadOfRetaining(t *testing.T) {
	l := New(2)
	var got []Event
	l.Stream(func(e Event) { got = append(got, e) })
	for i := 0; i < 5; i++ {
		l.AddDurCPU(vtime.Time(i), Preempt, "x", "d", vtime.Duration(i), 1)
	}
	if len(got) != 5 || got[4] != (Event{At: 4, Kind: Preempt, Task: "x", Detail: "d", Dur: 4, CPU: 1}) {
		t.Fatalf("forwarded %v", got)
	}
	if l.Total() != 5 || l.Dropped() != 0 || len(l.Events()) != 0 || l.ring != nil {
		t.Errorf("streaming log total=%d dropped=%d retained=%d ring=%v",
			l.Total(), l.Dropped(), len(l.Events()), l.ring != nil)
	}
	l.Stream(nil)
	l.Add(5, Release, "y", "")
	if evs := l.Events(); len(evs) != 1 || evs[0].Task != "y" || l.Total() != 6 {
		t.Errorf("after Stream(nil): events %v total %d", evs, l.Total())
	}
}

func TestRingAllocatedOnFirstEvent(t *testing.T) {
	l := New(1 << 20)
	if l.ring != nil || len(l.Events()) != 0 {
		t.Fatal("New allocated the ring before any event")
	}
	l.Add(1, Release, "a", "")
	if cap(l.ring) != minRing {
		t.Errorf("ring cap %d after one event, want the first allocation %d", cap(l.ring), minRing)
	}
}

// TestRingGrowsToCapacity: the ring doubles from its first allocation
// but never holds more than cap slots, wraps exactly at cap, and
// counts the overwritten events as Dropped.
func TestRingGrowsToCapacity(t *testing.T) {
	const capacity = 3*minRing + 7 // not a doubling of minRing
	l := New(capacity)
	for i := 0; i < capacity; i++ {
		l.Add(vtime.Time(i), Dispatch, "x", "")
		if cap(l.ring) > capacity {
			t.Fatalf("after %d events the ring has %d slots, over the capacity %d", i+1, cap(l.ring), capacity)
		}
	}
	if l.wrapped || l.Dropped() != 0 || len(l.ring) != capacity || cap(l.ring) != capacity {
		t.Fatalf("full ring: wrapped=%v dropped=%d len=%d cap=%d, want unwrapped, 0 dropped, %d/%d",
			l.wrapped, l.Dropped(), len(l.ring), cap(l.ring), capacity, capacity)
	}
	for i := capacity; i < capacity+10; i++ {
		l.Add(vtime.Time(i), Dispatch, "x", "")
	}
	if cap(l.ring) != capacity || l.Dropped() != 10 || l.Total() != capacity+10 {
		t.Errorf("wrapped ring: cap=%d dropped=%d total=%d, want %d/10/%d",
			cap(l.ring), l.Dropped(), l.Total(), capacity, capacity+10)
	}
	evs := l.Events()
	if len(evs) != capacity || evs[0].At != 10 || evs[capacity-1].At != capacity+9 {
		t.Errorf("retained %d events from %v to %v, want %d from 10 to %d",
			len(evs), evs[0].At, evs[len(evs)-1].At, capacity, capacity+9)
	}
	small := New(5) // a capacity under the first allocation is never exceeded
	small.Add(0, Release, "a", "")
	if cap(small.ring) != 5 {
		t.Errorf("New(5) ring has %d slots", cap(small.ring))
	}
}

// TestLogStreamZeroAlloc pins the hot-path contract: forwarding an
// event to a sink and overwriting a full ring both allocate nothing.
func TestLogStreamZeroAlloc(t *testing.T) {
	var n int
	stream := New(8)
	stream.Stream(func(e Event) { n += int(e.Kind) })
	if a := testing.AllocsPerRun(1000, func() {
		stream.AddDur(1, Complete, "x", "detail", 2)
	}); a != 0 {
		t.Errorf("streamed Add allocates %v per event", a)
	}
	ring := New(8)
	for i := 0; i < 8; i++ {
		ring.Add(vtime.Time(i), Dispatch, "x", "")
	}
	if a := testing.AllocsPerRun(1000, func() {
		ring.AddDur(1, Complete, "x", "detail", 2)
	}); a != 0 {
		t.Errorf("Add to a full ring allocates %v per event", a)
	}
}

// TestPerfettoAppendZeroAlloc pins the exporter's per-event contract:
// once an event's track exists, encoding it into the pre-grown buffer
// (flushed to the writer as it fills) allocates nothing.
func TestPerfettoAppendZeroAlloc(t *testing.T) {
	evs := []Event{
		{At: 1000, Kind: Release, Task: "a"},
		{At: 1000, Kind: Dispatch, Task: "a"},
		{At: 1500, Kind: SemAcquire, Task: "a", Detail: "m0 <held> & \"x\""},
		{At: 2000, Kind: Preempt, Task: "a", Detail: "for b", Dur: 1234},
		{At: 2000, Kind: Dispatch, Task: "b"},
		{At: 3000, Kind: Complete, Task: "b", Dur: 7},
		{At: 3000, Kind: Idle, Task: "-"},
		{At: 3001, Kind: Interrupt, Task: "isr", Detail: "irq3 "},
	}
	p := newPerfettoExporter(io.Discard, 1)
	for _, e := range evs {
		p.add(e) // creates every track
	}
	if a := testing.AllocsPerRun(1000, func() {
		for _, e := range evs {
			p.add(e)
		}
	}); a != 0 {
		t.Errorf("encoding %d events allocates %v times", len(evs), a)
	}
	if err := p.close(); err != nil {
		t.Error(err)
	}
}
