package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"emeralds/internal/vtime"
)

// TestDroppedCounter: filling a small ring past capacity reports
// exactly the overwritten events — truncated traces cannot masquerade
// as complete ones.
func TestDroppedCounter(t *testing.T) {
	l := New(4)
	for i := 0; i < 3; i++ {
		l.Add(vtime.Time(i), Dispatch, "x", "")
	}
	if l.Dropped() != 0 {
		t.Fatalf("dropped = %d before the ring filled", l.Dropped())
	}
	for i := 3; i < 10; i++ {
		l.Add(vtime.Time(i), Dispatch, "x", "")
	}
	if l.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6 (10 added, 4 retained)", l.Dropped())
	}
	if l.Total() != 10 {
		t.Errorf("total = %d, want 10", l.Total())
	}
	var nilLog *Log
	if nilLog.Dropped() != 0 {
		t.Error("nil log should report 0 dropped")
	}
}

// TestRawJSONRoundTrip: events survive the raw JSON encoding exactly,
// including the Dur payload and nanosecond timestamps.
func TestRawJSONRoundTrip(t *testing.T) {
	l := New(16)
	l.Add(0, TaskInfo, "a", "prio=0 period=4000000 deadline=4000000")
	l.Add(1, Release, "a", "")
	l.Add(1, Dispatch, "a", "")
	l.AddDur(1234567, Preempt, "a", "for b", 321)
	l.AddDur(2000000, Complete, "a", "", 97)

	var buf bytes.Buffer
	if err := l.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	events, dropped, err := ParseJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Errorf("dropped = %d", dropped)
	}
	want := l.Events()
	if len(events) != len(want) {
		t.Fatalf("round trip kept %d of %d events", len(events), len(want))
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d: got %+v, want %+v", i, events[i], want[i])
		}
	}
}

// TestParseJSONFromPerfettoExport: the raw log embedded in a Perfetto
// export round-trips through ParseJSON — one -trace-out file serves
// both ui.perfetto.dev and emreport.
func TestParseJSONFromPerfettoExport(t *testing.T) {
	l := New(16)
	l.Add(0, Dispatch, "a", "")
	l.AddDur(500, SemBlockWait, "a", "m holder=b", 17)
	l.Add(500, Dispatch, "b", "")

	var buf bytes.Buffer
	if err := l.ExportPerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	events, dropped, err := ParseJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Errorf("dropped = %d", dropped)
	}
	want := l.Events()
	if len(events) != len(want) {
		t.Fatalf("embedded log kept %d of %d events", len(events), len(want))
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d: got %+v, want %+v", i, events[i], want[i])
		}
	}
}

// TestParseJSONRejectsGarbage: unknown schemas, kinds, and plain
// Perfetto files without an embedded raw log all fail loudly.
func TestParseJSONRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not-json":     "{",
		"no-schema":    `{"events": []}`,
		"bad-schema":   `{"schema": "emeralds.trace/v999", "events": []}`,
		"bad-kind":     `{"schema": "emeralds.trace/v1", "events": [{"at":0,"kind":"warp","task":"a"}]}`,
		"perfetto-raw": `{"traceEvents": [{"ph":"M"}]}`,
	}
	for name, doc := range cases {
		if _, _, err := ParseJSON([]byte(doc)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestDroppedTravelsThroughJSON: the dropped count of a wrapped ring
// survives export/parse, so downstream consumers can refuse truncated
// traces.
func TestDroppedTravelsThroughJSON(t *testing.T) {
	l := New(2)
	for i := 0; i < 5; i++ {
		l.Add(vtime.Time(i), Dispatch, "x", "")
	}
	var buf bytes.Buffer
	if err := l.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	_, dropped, err := ParseJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 3 {
		t.Errorf("dropped = %d, want 3", dropped)
	}
}

// TestJSONPrimitivesMatchEncodingJSON pins the encoder's number and
// string rules to encoding/json's directly, including the 'e' float
// format that trace timestamps (integer ns / 1e3) never reach.
func TestJSONPrimitivesMatchEncodingJSON(t *testing.T) {
	for _, f := range []float64{0, 1, -1, 0.001, 1234.567, 1e-6, 9.99e-7, -1.5e-8, 1e-10,
		5e-324, 1e20, 1e21, -1e21, 1.7976931348623157e308, 9223372036854775.807} {
		want, _ := json.Marshal(f)
		if got := appendFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("appendFloat(%v) = %s, want %s", f, got, want)
		}
	}
	for _, s := range []string{"", "plain", `"q" \ /`, "<a href='x'>&amp;</a>",
		"\x00\x01\b\f\n\r\t\x1f\x7f", "é€𝄞", "\u2028x\u2029", "\xff", "a\xc3", "\xed\xa0\x80", "ok\xe2\x80"} {
		want, _ := json.Marshal(s)
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendString(%q) = %s, want %s", s, got, want)
		}
	}
}
