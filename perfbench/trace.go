package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// rootSpan names the span that covers one whole op.
const rootSpan = "op"

// span is one timed call into a layer during the traced run.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index into the span list; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  uint64 `json:"bytes"` // heap bytes allocated inside the span, children included
}

// tracer records spans in memory; they are written out when the run
// ends. Heap bytes come from runtime/metrics, which counts small
// objects when their span leaves the per-P cache, so per-span bytes can
// shift by a few KiB between neighbouring spans; sums over many ops are
// unaffected.
type tracer struct {
	epoch  time.Time
	spans  []span
	open   []int // stack of open span indices
	op     int
	sample []metrics.Sample
	counts map[string]float64 // per-layer counters, summed over ops
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
		counts: map[string]float64{},
	}
}

func (t *tracer) heapBytes() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Bytes: t.heapBytes()})
	t.open = append(t.open, len(t.spans)-1)
	t.spans[len(t.spans)-1].Start = int64(time.Since(t.epoch))
}

// end closes the innermost open span.
func (t *tracer) end() {
	now := int64(time.Since(t.epoch))
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.End = now
	s.Bytes = t.heapBytes() - s.Bytes
}

// do runs f inside a span.
func (t *tracer) do(name string, f func()) {
	t.begin(name)
	defer t.end()
	f()
}

// count adds to a per-layer counter.
func (t *tracer) count(name string, v float64) { t.counts[name] += v }

// layerSelf is one layer's self time and self bytes summed over all
// its spans.
type layerSelf struct {
	Ns    int64
	Bytes int64
}

// selfTimes returns every span name's self time and bytes: its spans'
// durations minus the time (and bytes) covered by their direct
// children. Children of one span never overlap, since every op runs
// on one goroutine.
func (t *tracer) selfTimes() map[string]layerSelf {
	out := map[string]layerSelf{}
	childNs := make([]int64, len(t.spans))
	childBytes := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.End - s.Start
			childBytes[s.Parent] += int64(s.Bytes)
		}
	}
	for i, s := range t.spans {
		l := out[s.Name]
		l.Ns += s.End - s.Start - childNs[i]
		l.Bytes += int64(s.Bytes) - childBytes[i]
		out[s.Name] = l
	}
	return out
}

// rootNs is the summed duration of every root op span.
func (t *tracer) rootNs() int64 {
	var ns int64
	for _, s := range t.spans {
		if s.Parent < 0 && s.Name == rootSpan {
			ns += s.End - s.Start
		}
	}
	return ns
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// shares lists each layer's share of the root op time, largest first.
func shares(self map[string]layerSelf, rootNs int64) []layerShare {
	var out []layerShare
	for name, l := range self {
		out = append(out, layerShare{Layer: name, Pct: 100 * float64(l.Ns) / float64(rootNs)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pct > out[j].Pct })
	return out
}

type layerShare struct {
	Layer string  `json:"layer"`
	Pct   float64 `json:"pct"`
}
