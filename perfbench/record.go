package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

type metricDef struct {
	name, unit   string
	higherBetter bool
}

// endToEnd are the gated metrics, reported with --trace 0.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", true},
	{"op_p50_ms", "ms", false},
	{"op_tail_ms", "ms", false},
	{"alloc_bytes_per_op", "B", false},
	{"allocs_per_op", "count", false},
	{"setup_s", "s", false},
}

// layerMetric is one per-layer metric of the traced run, per op: the
// self time or self bytes of the named spans, or a counter.
type layerMetric struct {
	name, unit string
	spans      []string // spans whose self time (unit ms) or self bytes (unit B) it sums
	count      string   // counter it reports instead, when set
}

var analysisSpans = []string{"analysis.edf", "analysis.rm", "analysis.csd2", "analysis.csd3", "analysis.csd4"}

// perLayer are the traced run's metrics, reported with --trace 1. A
// layer a workload never calls reads 0.
var perLayer = []layerMetric{
	{name: "attrib.ms", unit: "ms", spans: []string{"attrib"}},
	{name: "attrib.bytes", unit: "B", spans: []string{"attrib"}},
	{name: "attrib.activations", unit: "count", count: "attrib.activations"},
	{name: "scenario.build_ms", unit: "ms", spans: []string{"scenario.build"}},
	{name: "scenario.build_bytes", unit: "B", spans: []string{"scenario.build"}},
	{name: "trace.events", unit: "count", count: "trace.events"},
	{name: "trace.copy_ms", unit: "ms", spans: []string{"trace.copy"}},
	{name: "trace.copy_bytes", unit: "B", spans: []string{"trace.copy"}},
	{name: "telemetry.ms", unit: "ms", spans: []string{"telemetry"}},
	{name: "telemetry.bytes", unit: "B", spans: []string{"telemetry"}},
	{name: "syncheck.ms", unit: "ms", spans: []string{"syncheck"}},
	{name: "syncheck.bytes", unit: "B", spans: []string{"syncheck"}},
	{name: "kernel.boot_ms", unit: "ms", spans: []string{"kernel.boot"}},
	{name: "kernel.invariants_ms", unit: "ms", spans: []string{"kernel.invariants"}},
	{name: "analysis.feasible_ms", unit: "ms", spans: []string{"analysis.feasible"}},
	{name: "sim.run_ms", unit: "ms", spans: []string{"sim.run"}},
	{name: "sim.events", unit: "count", count: "sim.events"},
	{name: "sim.ns_per_event", unit: "ns"}, // sim.run self time ÷ sim.events
	{name: "kernel.dispatches", unit: "count", count: "kernel.dispatches"},
	{name: "kernel.context_switches", unit: "count", count: "kernel.context_switches"},
	{name: "kernel.sched_selects", unit: "count", count: "kernel.sched_selects"},
	{name: "kernel.sem_acquires", unit: "count", count: "kernel.sem_acquires"},
	{name: "kernel.ipc_sends", unit: "count", count: "kernel.ipc_sends"},
	{name: "kernel.migrations", unit: "count", count: "kernel.migrations"},
	{name: "workload.generate_ms", unit: "ms", spans: []string{"workload.generate"}},
	{name: "analysis.edf_ms", unit: "ms", spans: []string{"analysis.edf"}},
	{name: "analysis.rm_ms", unit: "ms", spans: []string{"analysis.rm"}},
	{name: "analysis.csd2_ms", unit: "ms", spans: []string{"analysis.csd2"}},
	{name: "analysis.csd3_ms", unit: "ms", spans: []string{"analysis.csd3"}},
	{name: "analysis.csd4_ms", unit: "ms", spans: []string{"analysis.csd4"}},
	{name: "analysis.bytes", unit: "B", spans: analysisSpans},
	{name: "trace.perfetto_ms", unit: "ms", spans: []string{"trace.perfetto"}},
	{name: "trace.perfetto_bytes", unit: "B", spans: []string{"trace.perfetto"}},
	{name: "trace.perfetto_out_bytes", unit: "B", count: "trace.perfetto_out_bytes"},
	// Per-run diagnostics, not gated.
	{name: "host.ref_ms", unit: "ms"},
	{name: "host.peak_rss_mb", unit: "MB"},
	{name: "host.gc_cycles", unit: "count"},
	{name: "host.gc_pause_ms", unit: "ms"},
	{name: "bench.trace_overhead_pct", unit: "%"},
	{name: "bench.unattributed_pct", unit: "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run, written with --out: enough to tell what was timed,
// on what, and whether another record may be compared with it.
type record struct {
	Workload    string    `json:"workload"`
	Seed        int64     `json:"seed"`
	Fingerprint string    `json:"fingerprint"`
	CycleLen    int       `json:"cycle_len"`
	Cycles      int       `json:"cycles"`
	Warmup      int       `json:"warmup_ops"`
	Tail        tail      `json:"tail"`
	TailSamples int       `json:"tail_samples"`
	SetupS      []float64 `json:"setup_s_reps"`

	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_digest"`
	CPUModel   string `json:"cpu_model"`
	// RefMsBefore and RefMsAfter time a fixed pure-Go loop before and
	// after the run, so host speed drift shows beside every result.
	RefMsBefore float64 `json:"host_ref_ms_before"`
	RefMsAfter  float64 `json:"host_ref_ms_after"`
	PeakRSSMB   float64 `json:"peak_rss_mb"`
	// LoopCPUShare is the process CPU time of the untraced loop over its
	// wall time; well below 1 means the process waited for a CPU.
	LoopCPUShare float64 `json:"loop_cpu_share"`

	Attempted       int    `json:"attempted"`
	Failed          int    `json:"failed"`
	Golden          string `json:"golden"` // match, mismatch, missing, or "" off the default seed
	GoldenCycles    int    `json:"golden_cycles"`
	TracedOps       int    `json:"traced_ops,omitempty"`
	TraceMismatches int    `json:"trace_mismatches"`

	Metrics map[string]metricValue `json:"metrics"`
	Layers  map[string]metricValue `json:"layers,omitempty"`
	Shares  []layerShare           `json:"layer_shares,omitempty"`

	loop      loopStats
	digest    digest
	tr        *tracer
	gcCycles  float64
	gcPauseMs float64
}

func newRecord(w *bench, seed int64) *record {
	return &record{
		Workload:   w.name,
		Seed:       seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     envOr("PERFBENCH_COMMIT", "unknown"),
		Source:     envOr("PERFBENCH_SOURCE", "unknown"),
		CPUModel:   cpuModel(),
	}
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// fill computes the end-to-end metrics from the untraced loop and, for
// a traced run, the per-layer metrics.
func (r *record) fill(tr *tracer) {
	l := &r.loop
	r.LoopCPUShare = float64(l.cpuNs) / float64(l.wallNs)
	r.Tail = tailOf(l.latMs)
	r.TailSamples = len(l.latMs)
	ops := float64(l.ops)
	r.Metrics = map[string]metricValue{
		"ops_per_s":          {ops / (float64(l.opNs) / 1e9), "1/s"},
		"op_p50_ms":          {median(l.latMs), "ms"},
		"op_tail_ms":         {r.Tail.Value, "ms"},
		"alloc_bytes_per_op": {float64(l.allocBytes) / ops, "B"},
		"allocs_per_op":      {float64(l.allocObjs) / ops, "count"},
		"setup_s":            {median(r.SetupS), "s"},
	}
	if tr == nil {
		return
	}
	r.tr = tr
	self := tr.selfTimes()
	root := tr.rootNs()
	n := float64(r.TracedOps)
	r.Layers = map[string]metricValue{}
	for _, m := range perLayer {
		var v float64
		switch {
		case m.count != "":
			v = tr.counts[m.count] / n
		case len(m.spans) > 0:
			for _, s := range m.spans {
				if m.unit == "B" {
					v += float64(self[s].Bytes)
				} else {
					v += float64(self[s].Ns) / 1e6
				}
			}
			v /= n
		}
		r.Layers[m.name] = metricValue{v, m.unit}
	}
	set := func(name string, v float64) { r.Layers[name] = metricValue{v, r.Layers[name].Unit} }
	if ev := tr.counts["sim.events"]; ev > 0 {
		set("sim.ns_per_event", float64(self["sim.run"].Ns)/ev)
	}
	set("host.ref_ms", (r.RefMsBefore+r.RefMsAfter)/2)
	set("host.peak_rss_mb", r.PeakRSSMB)
	set("host.gc_cycles", r.gcCycles)
	set("host.gc_pause_ms", r.gcPauseMs)
	untraced := ops / float64(l.opNs)
	tracedRate := n / float64(root)
	set("bench.trace_overhead_pct", 100*(untraced/tracedRate-1))
	set("bench.unattributed_pct", 100*float64(self[rootSpan].Ns)/float64(root))
	r.Shares = shares(self, root)
}

// correct reports whether the outputs are the expected ones: the
// default seed's digest matches the committed one and the traced
// rebuild reproduced every untraced op. Ops whose output reports a
// failure (an oracle finding, an error) are counted in failed instead:
// their outputs are still checked against the digest.
func (r *record) correct() bool {
	golden := r.Seed != defaultSeed || r.Golden == "match"
	return golden && r.TraceMismatches == 0
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *record) result() result {
	m := r.Metrics
	if r.tr != nil {
		m = r.Layers
	}
	return result{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: m}
}

// summarize prints a human-readable account of the run.
func (r *record) summarize(w io.Writer) {
	fmt.Fprintf(w, "perfbench %s seed=%d fingerprint=%.12s ops=%d (%d cycles × %d, warm-up %d) gomaxprocs=%d cpu=%q\n",
		r.Workload, r.Seed, r.Fingerprint, r.loop.ops, r.Cycles, r.CycleLen, r.Warmup, r.GOMAXPROCS, r.CPUModel)
	fmt.Fprintf(w, "  golden=%s (%d cycles) failed=%d/%d traced=%d trace_mismatches=%d host.ref_ms=%.3f→%.3f cpu/wall=%.3f\n",
		r.Golden, r.GoldenCycles, r.Failed, r.Attempted, r.TracedOps, r.TraceMismatches, r.RefMsBefore, r.RefMsAfter, r.LoopCPUShare)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-20s %12.6g %s\n", m.name, r.Metrics[m.name].Value, m.unit)
	}
	fmt.Fprintf(w, "  tail at p%g with %d of %d samples beyond\n", r.Tail.Pct, r.Tail.Beyond, r.TailSamples)
	for _, s := range r.Shares {
		name := s.Layer
		if name == rootSpan {
			name = "(unattributed)"
		}
		fmt.Fprintf(w, "  share %-20s %6.2f%%\n", name, s.Pct)
	}
}

// refSink keeps the reference loop's result live.
var refSink uint64

var refTable = make([]uint64, 1<<14)

// refProbe times a fixed pure-Go loop (integer mixing over a 128 KiB
// table) and returns the median of five timings in ms. It depends on
// nothing in the repository, so its drift is the host's.
func refProbe() float64 {
	ms := make([]float64, 5)
	for r := range ms {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 1<<22; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			refTable[x&(1<<14-1)] += x
		}
		refSink += refTable[x&(1<<14-1)]
		ms[r] = float64(time.Since(t0)) / 1e6
	}
	return median(ms)
}

// processCPU is the CPU time all of the process's threads have used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
