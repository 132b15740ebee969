package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"emeralds/internal/vtime"
)

// Perfetto export: converts a recorded event log into the Chrome
// trace-event JSON format, loadable in ui.perfetto.dev or
// chrome://tracing. The mapping is
//
//   - one thread track per task (plus synthetic tracks for "isr" etc.),
//     named by "M"/thread_name metadata events in order of first
//     appearance;
//   - a "X" complete slice per scheduling quantum, opened at dispatch
//     and closed when the task is preempted, blocks, completes, or the
//     CPU goes idle;
//   - "i" instant events (thread scope) for everything else — deadline
//     misses, faults, releases, semaphore and IPC operations — so no
//     recorded kind is silently dropped;
//   - "s"/"f" flow arrows from each semaphore grant to the granted
//     waiter's next dispatch, making the handoff visible across tracks;
//   - on multicore traces, one Perfetto process per CPU (pid = cpu+1,
//     named "emeralds cpuN") with each task's track living in the
//     process of the CPU it runs on, and migrate→migrate-done flow
//     arrows showing each task's hop between CPUs. Single-CPU traces
//     keep the classic single-process layout, byte for byte.
//
// Timestamps are microseconds (the trace-event unit); virtual time is
// nanoseconds, so sub-microsecond costs keep three decimal places.
// Each JSON object is a map, and encoding/json orders map keys
// lexically, so the export is byte-deterministic for a given event
// sequence.

// perfettoExporter accumulates trace-event objects.
type perfettoExporter struct {
	events []map[string]any
	multi  bool           // per-CPU processes (any event names a CPU > 0)
	tids   map[tidKey]int // (pid, task) → track id
	ntids  int
	cur    []string     // per-CPU: task owning the open run slice, "" when idle
	start  []vtime.Time // per-CPU: open slice's start
	nextID int          // flow-event id allocator
	flows  map[string][]int
	hops   map[string][]int // open migrate→migrate-done flow ids per task
}

type tidKey struct {
	pid  int
	task string
}

func us(t vtime.Time) float64 { return float64(t) / 1e3 }

// pid maps a CPU to its Perfetto process: the classic single process
// for single-CPU traces, one process per CPU otherwise.
func (p *perfettoExporter) pid(cpu int) int {
	if !p.multi {
		return 1
	}
	return cpu + 1
}

// tid returns the stable per-(process, task) track id, emitting the
// thread_name metadata event on first use.
func (p *perfettoExporter) tid(pid int, task string) int {
	key := tidKey{pid, task}
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

func (p *perfettoExporter) closeSlice(cpu int, at vtime.Time) {
	if p.cur[cpu] == "" {
		return
	}
	p.events = append(p.events, map[string]any{
		"ph": "X", "name": "run", "cat": "task",
		"pid": p.pid(cpu), "tid": p.tid(p.pid(cpu), p.cur[cpu]),
		"ts": us(p.start[cpu]), "dur": us(at) - us(p.start[cpu]),
	})
	p.cur[cpu] = ""
}

func (p *perfettoExporter) instant(e Event) {
	ev := map[string]any{
		"ph": "i", "s": "t", "name": e.Kind.String(), "cat": "kernel",
		"pid": p.pid(e.CPU), "tid": p.tid(p.pid(e.CPU), e.Task), "ts": us(e.At),
	}
	args := map[string]any{}
	if e.Detail != "" {
		args["detail"] = e.Detail
	}
	if e.Dur != 0 {
		// Occupancy-end events carry the kernel overhead consumed during
		// the quantum they close (see Event.Dur).
		args["overhead_us"] = float64(e.Dur) / 1e3
	}
	if len(args) > 0 {
		ev["args"] = args
	}
	p.events = append(p.events, ev)
}

func (p *perfettoExporter) add(e Event) {
	c := e.CPU
	switch e.Kind {
	case Dispatch:
		p.closeSlice(c, e.At)
		// Close pending grant→dispatch flow arrows landing here.
		for _, id := range p.flows[e.Task] {
			p.events = append(p.events, map[string]any{
				"ph": "f", "bp": "e", "id": id, "name": "sem-grant", "cat": "sem",
				"pid": p.pid(c), "tid": p.tid(p.pid(c), e.Task), "ts": us(e.At),
			})
		}
		delete(p.flows, e.Task)
		p.cur[c] = e.Task
		p.start[c] = e.At
	case Idle:
		p.closeSlice(c, e.At)
	case Preempt, Complete, Miss, BlockEv, SemBlockWait:
		if e.Task == p.cur[c] {
			p.closeSlice(c, e.At)
		}
		p.instant(e)
	case Migrate:
		// The task leaves this CPU: close its slice if it was running and
		// open a flow arrow that lands at the migrate-done on the target.
		if e.Task == p.cur[c] {
			p.closeSlice(c, e.At)
		}
		p.nextID++
		p.events = append(p.events, map[string]any{
			"ph": "s", "id": p.nextID, "name": "migrate", "cat": "sched",
			"pid": p.pid(c), "tid": p.tid(p.pid(c), e.Task), "ts": us(e.At),
		})
		p.hops[e.Task] = append(p.hops[e.Task], p.nextID)
		p.instant(e)
	case MigrateDone:
		for _, id := range p.hops[e.Task] {
			p.events = append(p.events, map[string]any{
				"ph": "f", "bp": "e", "id": id, "name": "migrate", "cat": "sched",
				"pid": p.pid(c), "tid": p.tid(p.pid(c), e.Task), "ts": us(e.At),
			})
		}
		delete(p.hops, e.Task)
		p.instant(e)
	case SemGrant:
		// The grant executes on the releasing task's track (the one
		// running now); the arrow lands on the waiter's next dispatch.
		p.nextID++
		from := p.cur[c]
		if from == "" {
			from = e.Task
		}
		p.events = append(p.events, map[string]any{
			"ph": "s", "id": p.nextID, "name": "sem-grant", "cat": "sem",
			"pid": p.pid(c), "tid": p.tid(p.pid(c), from), "ts": us(e.At),
		})
		p.flows[e.Task] = append(p.flows[e.Task], p.nextID)
		p.instant(e)
	default:
		p.instant(e)
	}
}

// perfettoDoc builds the trace-event document for an event sequence.
// extra keys (e.g. the embedded raw log) are merged in at the top
// level; Chrome and Perfetto ignore keys they do not know.
func buildPerfettoDoc(events []Event, extra map[string]any) map[string]any {
	maxCPU := 0
	for _, e := range events {
		if e.CPU > maxCPU {
			maxCPU = e.CPU
		}
	}
	p := &perfettoExporter{
		multi: maxCPU > 0,
		tids:  map[tidKey]int{},
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
		p.closeSlice(c, last) // a slice still open ends at the last event
	}
	doc := map[string]any{"displayTimeUnit": "ms", "traceEvents": p.events}
	for k, v := range extra {
		doc[k] = v
	}
	return doc
}

// ExportPerfetto writes events as Chrome/Perfetto trace-event JSON.
func ExportPerfetto(w io.Writer, events []Event) error {
	return json.NewEncoder(w).Encode(buildPerfettoDoc(events, nil))
}

// ExportPerfetto exports a log's retained events, embedding the raw
// event log under "emeraldsTrace" (ignored by Perfetto, replayable by
// cmd/emreport and package attrib — one file serves both).
func (l *Log) ExportPerfetto(w io.Writer) error {
	if l == nil {
		return fmt.Errorf("trace: nil log")
	}
	evs := l.Events()
	doc := buildPerfettoDoc(evs, map[string]any{"emeraldsTrace": l.rawOf(evs)})
	return json.NewEncoder(w).Encode(doc)
}
