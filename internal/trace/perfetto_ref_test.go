package trace_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"emeralds/internal/scenario"
	"emeralds/internal/trace"
	"emeralds/internal/vtime"
)

// The reference Perfetto builder: the map[string]any document the
// append-based encoder replaced, marshalled by encoding/json. It is the
// oracle that pins the encoder's bytes (key order, float format,
// escaping) to what encoding/json writes for the same objects.

type refTidKey struct {
	pid  int
	task string
}

type refExporter struct {
	events []map[string]any
	multi  bool
	tids   map[refTidKey]int
	ntids  int
	cur    []string
	start  []vtime.Time
	nextID int
	flows  map[string][]int
	hops   map[string][]int
}

func refUs(t vtime.Time) float64 { return float64(t) / 1e3 }

func (p *refExporter) pid(cpu int) int {
	if !p.multi {
		return 1
	}
	return cpu + 1
}

func (p *refExporter) tid(pid int, task string) int {
	key := refTidKey{pid, task}
	if id, ok := p.tids[key]; ok {
		return id
	}
	p.ntids++
	id := p.ntids
	p.tids[key] = id
	p.events = append(p.events, map[string]any{
		"ph": "M", "name": "thread_name", "pid": pid, "tid": id,
		"args": map[string]any{"name": task},
	})
	return id
}

func (p *refExporter) closeSlice(cpu int, at vtime.Time) {
	if p.cur[cpu] == "" {
		return
	}
	p.events = append(p.events, map[string]any{
		"ph": "X", "name": "run", "cat": "task",
		"pid": p.pid(cpu), "tid": p.tid(p.pid(cpu), p.cur[cpu]),
		"ts": refUs(p.start[cpu]), "dur": refUs(at) - refUs(p.start[cpu]),
	})
	p.cur[cpu] = ""
}

func (p *refExporter) instant(e trace.Event) {
	ev := map[string]any{
		"ph": "i", "s": "t", "name": e.Kind.String(), "cat": "kernel",
		"pid": p.pid(e.CPU), "tid": p.tid(p.pid(e.CPU), e.Task), "ts": refUs(e.At),
	}
	args := map[string]any{}
	if e.Detail != "" {
		args["detail"] = e.Detail
	}
	if e.Dur != 0 {
		args["overhead_us"] = float64(e.Dur) / 1e3
	}
	if len(args) > 0 {
		ev["args"] = args
	}
	p.events = append(p.events, ev)
}

func (p *refExporter) add(e trace.Event) {
	c := e.CPU
	switch e.Kind {
	case trace.Dispatch:
		p.closeSlice(c, e.At)
		for _, id := range p.flows[e.Task] {
			p.events = append(p.events, map[string]any{
				"ph": "f", "bp": "e", "id": id, "name": "sem-grant", "cat": "sem",
				"pid": p.pid(c), "tid": p.tid(p.pid(c), e.Task), "ts": refUs(e.At),
			})
		}
		delete(p.flows, e.Task)
		p.cur[c] = e.Task
		p.start[c] = e.At
	case trace.Idle:
		p.closeSlice(c, e.At)
	case trace.Preempt, trace.Complete, trace.Miss, trace.BlockEv, trace.SemBlockWait:
		if e.Task == p.cur[c] {
			p.closeSlice(c, e.At)
		}
		p.instant(e)
	case trace.Migrate:
		if e.Task == p.cur[c] {
			p.closeSlice(c, e.At)
		}
		p.nextID++
		p.events = append(p.events, map[string]any{
			"ph": "s", "id": p.nextID, "name": "migrate", "cat": "sched",
			"pid": p.pid(c), "tid": p.tid(p.pid(c), e.Task), "ts": refUs(e.At),
		})
		p.hops[e.Task] = append(p.hops[e.Task], p.nextID)
		p.instant(e)
	case trace.MigrateDone:
		for _, id := range p.hops[e.Task] {
			p.events = append(p.events, map[string]any{
				"ph": "f", "bp": "e", "id": id, "name": "migrate", "cat": "sched",
				"pid": p.pid(c), "tid": p.tid(p.pid(c), e.Task), "ts": refUs(e.At),
			})
		}
		delete(p.hops, e.Task)
		p.instant(e)
	case trace.SemGrant:
		p.nextID++
		from := p.cur[c]
		if from == "" {
			from = e.Task
		}
		p.events = append(p.events, map[string]any{
			"ph": "s", "id": p.nextID, "name": "sem-grant", "cat": "sem",
			"pid": p.pid(c), "tid": p.tid(p.pid(c), from), "ts": refUs(e.At),
		})
		p.flows[e.Task] = append(p.flows[e.Task], p.nextID)
		p.instant(e)
	default:
		p.instant(e)
	}
}

// refPerfetto encodes events the reference way; a non-nil raw log is
// embedded under "emeraldsTrace".
func refPerfetto(t *testing.T, events []trace.Event, raw *trace.RawLog) []byte {
	t.Helper()
	maxCPU := 0
	for _, e := range events {
		maxCPU = max(maxCPU, e.CPU)
	}
	p := &refExporter{
		multi: maxCPU > 0,
		tids:  map[refTidKey]int{},
		cur:   make([]string, maxCPU+1),
		start: make([]vtime.Time, maxCPU+1),
		flows: map[string][]int{},
		hops:  map[string][]int{},
	}
	if p.multi {
		for c := 0; c <= maxCPU; c++ {
			p.events = append(p.events, map[string]any{
				"ph": "M", "name": "process_name", "pid": p.pid(c),
				"args": map[string]any{"name": fmt.Sprintf("emeralds cpu%d", c)},
			})
		}
	} else {
		p.events = append(p.events, map[string]any{
			"ph": "M", "name": "process_name", "pid": 1,
			"args": map[string]any{"name": "emeralds"},
		})
	}
	var last vtime.Time
	for _, e := range events {
		p.add(e)
		last = e.At
	}
	for c := range p.cur {
		p.closeSlice(c, last)
	}
	doc := map[string]any{"displayTimeUnit": "ms", "traceEvents": p.events}
	if raw != nil {
		doc["emeraldsTrace"] = *raw
	}
	return refEncode(t, doc)
}

// refRaw is the RawLog a log serializes to.
func refRaw(l *trace.Log) *trace.RawLog {
	evs := l.Events()
	out := &trace.RawLog{Schema: trace.RawSchema, Total: l.Total(), Dropped: l.Dropped(), Events: make([]trace.RawEvent, len(evs))}
	for i, e := range evs {
		out.Events[i] = trace.RawEvent{
			At: int64(e.At), Kind: e.Kind.String(), Task: e.Task,
			Detail: e.Detail, Dur: int64(e.Dur), CPU: e.CPU,
		}
	}
	return out
}

func refEncode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameBytes reports the first difference between got and want.
func sameBytes(t *testing.T, what string, got, want []byte) bool {
	t.Helper()
	if bytes.Equal(got, want) {
		return true
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	clip := func(b []byte) []byte { return b[max(0, i-60):min(len(b), i+60)] }
	t.Errorf("%s: %d bytes, reference %d; first difference at byte %d:\n got %q\nwant %q",
		what, len(got), len(want), i, clip(got), clip(want))
	return false
}

// checkLog compares every exporter of l with the reference.
func checkLog(t *testing.T, name string, l *trace.Log) []byte {
	t.Helper()
	var got bytes.Buffer
	if err := l.ExportPerfetto(&got); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	raw := refRaw(l)
	sameBytes(t, name+": Log.ExportPerfetto", got.Bytes(), refPerfetto(t, l.Events(), raw))
	var js bytes.Buffer
	if err := l.ExportJSON(&js); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sameBytes(t, name+": Log.ExportJSON", js.Bytes(), refEncode(t, raw))
	var bare bytes.Buffer
	if err := trace.ExportPerfetto(&bare, l.Events()); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sameBytes(t, name+": ExportPerfetto", bare.Bytes(), refPerfetto(t, l.Events(), nil))
	return got.Bytes()
}

func logOf(events []trace.Event, capacity int) *trace.Log {
	l := trace.New(capacity)
	for _, e := range events {
		l.AddDurCPU(e.At, e.Kind, e.Task, e.Detail, e.Dur, e.CPU)
	}
	return l
}

// replay is scenario.ExportTrace up to the export: it returns the
// scenario's simulated trace ring.
func replay(t *testing.T, s *scenario.Scenario) *trace.Log {
	t.Helper()
	sys, aper, err := scenario.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Boot(); err != nil {
		t.Fatal(err)
	}
	eng := sys.Kernel().Engine()
	for i, th := range aper {
		if th == nil {
			continue
		}
		for _, at := range s.Tasks[i].Arrivals {
			eng.At(at, "arrival", func() { sys.Kernel().ReleaseAperiodic(th) })
		}
	}
	sys.Run(s.Horizon)
	return sys.Trace()
}

func checkScenario(t *testing.T, s *scenario.Scenario) {
	t.Helper()
	name := fmt.Sprintf("%s #%d M=%d", s.Name, s.Index, max(s.CPUs, 1))
	got := checkLog(t, name, replay(t, s))
	var exp bytes.Buffer
	if err := scenario.ExportTrace(s, &exp); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sameBytes(t, name+": scenario.ExportTrace", exp.Bytes(), got)
}

// TestPerfettoMatchesReference: the encoder writes exactly the bytes
// encoding/json writes for the reference builder's maps, on the
// hand-written fixtures, a wrapped ring, the committed scenario repros
// and two whole cycles of generated scenarios at mixed CPU counts.
func TestPerfettoMatchesReference(t *testing.T) {
	names := make([]string, 0, len(perfettoFixtures))
	for name := range perfettoFixtures {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		checkLog(t, name, logOf(perfettoFixtures[name], 64))
	}
	checkLog(t, "wrapped", logOf(perfettoFixtures["multicore"], 3))
	checkLog(t, "empty", trace.New(4))

	repros, err := filepath.Glob("../scenario/testdata/*.json")
	if err != nil || len(repros) == 0 {
		t.Fatalf("no scenario repros (%v)", err)
	}
	for _, path := range repros {
		s, err := scenario.ReadRepro(path)
		if err != nil {
			t.Fatal(err)
		}
		checkScenario(t, s)
	}

	// Two 264-index generator cycles (every archetype × policy × scheme
	// × CPU count). -short keeps every 7th index, which still reaches
	// every archetype, policy, scheme and CPU count.
	step := 1
	if testing.Short() {
		step = 7
	}
	for i := 0; i < 2*264; i += step {
		checkScenario(t, scenario.Gen(1, i, 0))
		if t.Failed() {
			return
		}
	}
}

// viaJSON is s after an encoding/json round trip: invalid UTF-8 comes
// back as U+FFFD.
func viaJSON(s string) string {
	b, _ := json.Marshal(s)
	var out string
	_ = json.Unmarshal(b, &out)
	return out
}

// FuzzPerfettoEncoding drives the encoder with arbitrary task and
// detail strings (quotes, backslashes, HTML characters, control bytes,
// invalid UTF-8, U+2028), timestamps, durations and CPUs 0..3. The
// export must equal the reference's bytes and round-trip through
// ParseJSON.
func FuzzPerfettoEncoding(f *testing.F) {
	f.Add("a", "b", "m holder=b", int64(0), int64(17), uint8(64), []byte{1, 0, 12, 5, 1, 1, 2, 8})
	f.Add("<t&1>", "\"q\\", "\x01\b\f\n\r\t\x7f\u2028\u2029\xff\xfe", int64(-1234567), int64(-3), uint8(2),
		[]byte{1, 0x10, 24, 0x11, 25, 0x21, 1, 0x21, 9, 0x36, 12, 0x14, 1, 0x01, 22, 0x02})
	f.Add("x", "", "é€𝄞", int64(1)<<62, int64(1), uint8(255), []byte{1, 2, 12, 3, 1, 1, 4, 0x3c, 22, 0})
	f.Fuzz(func(t *testing.T, taskA, taskB, detail string, at, dur int64, capacity uint8, script []byte) {
		tasks := [4]string{taskA, taskB, "-", ""}
		l := trace.New(int(capacity) + 1)
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], script[i+1]
			var d string
			if arg&4 != 0 {
				d = detail
			}
			var du vtime.Duration
			if arg&8 != 0 {
				du = vtime.Duration(dur)
			}
			// Mostly monotone time, with the fuzzed offset and an
			// occasional jump back.
			ts := vtime.Time(at) + vtime.Time(i)*vtime.Time(op)
			l.AddDurCPU(ts, trace.Kind(op%uint8(trace.NumKinds)), tasks[arg&3], d, du, int(arg>>4)&3)
		}
		got := checkLog(t, "fuzz", l)
		events, dropped, err := trace.ParseJSON(got)
		if err != nil {
			t.Fatalf("export does not parse: %v", err)
		}
		want := l.Events()
		if dropped != l.Dropped() || len(events) != len(want) {
			t.Fatalf("round trip: %d events, %d dropped; want %d, %d", len(events), dropped, len(want), l.Dropped())
		}
		for i, e := range want {
			e.Task, e.Detail = viaJSON(e.Task), viaJSON(e.Detail)
			if events[i] != e {
				t.Fatalf("event %d: round trip %+v, want %+v", i, events[i], e)
			}
		}
	})
}
