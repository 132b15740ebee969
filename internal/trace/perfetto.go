package trace

import (
	"io"
	"strconv"

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
// Each object is appended straight into a bounded buffer with its keys
// in lexical order and numbers and strings formatted as encoding/json
// formats them (DESIGN.md §3.9), so the export is byte-deterministic
// for a given event sequence and byte-identical to marshalling the
// same objects as maps.

// perfettoExporter writes trace-event objects as it derives them.
type perfettoExporter struct {
	jsonWriter
	n      int            // traceEvents elements written
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

// open starts the next traceEvents element.
func (p *perfettoExporter) open() []byte {
	if p.n > 0 {
		p.buf = append(p.buf, ',')
	}
	p.n++
	return append(p.buf, '{')
}

// end closes an element with the keys every track event ends with.
func (p *perfettoExporter) end(b []byte, tid int, at vtime.Time) {
	b = strconv.AppendInt(append(b, `,"tid":`...), int64(tid), 10)
	b = appendFloat(append(b, `,"ts":`...), us(at))
	p.buf = append(b, '}')
	p.maybeFlush()
}

func appendPid(b []byte, pid int) []byte {
	return strconv.AppendInt(append(b, `,"pid":`...), int64(pid), 10)
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
	b := appendString(append(p.open(), `"args":{"name":`...), task)
	b = appendPid(append(b, `},"name":"thread_name","ph":"M"`...), pid)
	b = strconv.AppendInt(append(b, `,"tid":`...), int64(id), 10)
	p.buf = append(b, '}')
	return id
}

// processName emits the "M"/process_name metadata event for a CPU's
// process: "emeralds" alone, or "emeralds cpuN" on multicore traces.
func (p *perfettoExporter) processName(cpu int) {
	b := append(p.open(), `"args":{"name":"emeralds`...)
	if p.multi {
		b = strconv.AppendInt(append(b, " cpu"...), int64(cpu), 10)
	}
	p.buf = append(appendPid(append(b, `"},"name":"process_name","ph":"M"`...), p.pid(cpu)), '}')
}

func (p *perfettoExporter) closeSlice(cpu int, at vtime.Time) {
	if p.cur[cpu] == "" {
		return
	}
	pid := p.pid(cpu)
	tid := p.tid(pid, p.cur[cpu])
	b := appendFloat(append(p.open(), `"cat":"task","dur":`...), us(at)-us(p.start[cpu]))
	b = appendPid(append(b, `,"name":"run","ph":"X"`...), pid)
	p.end(b, tid, p.start[cpu])
	p.cur[cpu] = ""
}

// flow emits one end of a flow arrow: ph "s" starts it, "f" lands it.
func (p *perfettoExporter) flow(ph string, id int, name, cat string, cpu int, task string, at vtime.Time) {
	pid := p.pid(cpu)
	tid := p.tid(pid, task)
	b := p.open()
	if ph == "f" {
		b = append(b, `"bp":"e",`...)
	}
	b = append(append(append(b, `"cat":"`...), cat...), `","id":`...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(append(append(b, `,"name":"`...), name...), `","ph":"`...)
	b = appendPid(append(append(b, ph...), '"'), pid)
	p.end(b, tid, at)
}

func (p *perfettoExporter) instant(e Event) {
	pid := p.pid(e.CPU)
	tid := p.tid(pid, e.Task)
	b := p.open()
	if e.Detail != "" || e.Dur != 0 {
		b = append(b, `"args":{`...)
		if e.Detail != "" {
			b = appendString(append(b, `"detail":`...), e.Detail)
		}
		if e.Dur != 0 {
			if e.Detail != "" {
				b = append(b, ',')
			}
			// Occupancy-end events carry the kernel overhead consumed
			// during the quantum they close (see Event.Dur).
			b = appendFloat(append(b, `"overhead_us":`...), float64(e.Dur)/1e3)
		}
		b = append(b, "},"...)
	}
	b = appendString(append(b, `"cat":"kernel","name":`...), e.Kind.String())
	b = appendPid(append(b, `,"ph":"i"`...), pid)
	p.end(append(b, `,"s":"t"`...), tid, e.At)
}

func (p *perfettoExporter) add(e Event) {
	c := e.CPU
	switch e.Kind {
	case Dispatch:
		p.closeSlice(c, e.At)
		// Close pending grant→dispatch flow arrows landing here.
		for _, id := range p.flows[e.Task] {
			p.flow("f", id, "sem-grant", "sem", c, e.Task, e.At)
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
		p.flow("s", p.nextID, "migrate", "sched", c, e.Task, e.At)
		p.hops[e.Task] = append(p.hops[e.Task], p.nextID)
		p.instant(e)
	case MigrateDone:
		for _, id := range p.hops[e.Task] {
			p.flow("f", id, "migrate", "sched", c, e.Task, e.At)
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
		p.flow("s", p.nextID, "sem-grant", "sem", c, from, e.At)
		p.flows[e.Task] = append(p.flows[e.Task], p.nextID)
		p.instant(e)
	default:
		p.instant(e)
	}
}

func newPerfettoExporter(w io.Writer, ncpu int) *perfettoExporter {
	return &perfettoExporter{
		jsonWriter: newJSONWriter(w),
		multi:      ncpu > 1,
		tids:       map[tidKey]int{},
		cur:        make([]string, ncpu),
		start:      make([]vtime.Time, ncpu),
		flows:      map[string][]int{},
		hops:       map[string][]int{},
	}
}

// writePerfetto writes the trace-event document for the event sequence
// older then newer. A non-nil raw log is embedded under the top-level
// "emeraldsTrace" key; Chrome and Perfetto ignore keys they do not know.
func writePerfetto(w io.Writer, older, newer []Event, raw *Log) error {
	maxCPU := 0
	for _, part := range [2][]Event{older, newer} {
		for i := range part {
			maxCPU = max(maxCPU, part[i].CPU)
		}
	}
	p := newPerfettoExporter(w, maxCPU+1)
	p.buf = append(p.buf, `{"displayTimeUnit":"ms",`...)
	if raw != nil {
		p.buf = append(p.buf, `"emeraldsTrace":`...)
		raw.writeRaw(&p.jsonWriter)
		p.buf = append(p.buf, ',')
	}
	p.buf = append(p.buf, `"traceEvents":[`...)
	for c := range p.cur {
		p.processName(c)
	}
	var last vtime.Time
	for _, part := range [2][]Event{older, newer} {
		for i := range part {
			p.add(part[i])
			last = part[i].At
		}
	}
	for c := range p.cur {
		p.closeSlice(c, last) // a slice still open ends at the last event
	}
	p.buf = append(p.buf, "]}\n"...)
	return p.close()
}

// ExportPerfetto writes events as Chrome/Perfetto trace-event JSON.
func ExportPerfetto(w io.Writer, events []Event) error {
	return writePerfetto(w, events, nil, nil)
}

// ExportPerfetto exports a log's retained events, embedding the raw
// event log under "emeraldsTrace" (ignored by Perfetto, replayable by
// cmd/emreport and package attrib — one file serves both). Both are
// read from the ring in place.
func (l *Log) ExportPerfetto(w io.Writer) error {
	if l == nil {
		return errNilLog
	}
	older, newer := l.span()
	return writePerfetto(w, older, newer, l)
}
