package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"emeralds/internal/analysis"
	"emeralds/internal/attrib"
	"emeralds/internal/costmodel"
	"emeralds/internal/experiments"
	"emeralds/internal/ipc/syncheck"
	"emeralds/internal/kernel"
	"emeralds/internal/metrics"
	"emeralds/internal/scenario"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/telemetry"
	"emeralds/internal/trace"
	"emeralds/internal/vtime"
	"emeralds/internal/workload"
)

// A bench is one workload: a seed-generated op sequence run through
// the program's public entry points. The sequence is made of cycles of
// cycleLen ops that share one op mix (every cycle covers the same
// policies, sizes and archetypes) but have inputs of their own, so a
// run's medians rest on many distinct inputs rather than on a few that
// one seed happens to draw.
type bench struct {
	name     string
	cycleLen int
	// cycleSeconds is the nominal host time of one cycle, used only to
	// turn --seconds into a fixed cycle count: every run with the same
	// --seconds times the same number of ops.
	cycleSeconds float64
	// warmup is how many ops run untimed after the inputs are made.
	warmup int
	// setup generates the first n ops of the seed's sequence.
	setup func(seed int64, n int) *seq
}

// seq is one generated op sequence.
type seq struct {
	n      int
	inputs [][]byte // canonical encoding of each op's inputs
	// call runs op i through the public entry point.
	call func(i int) any
	// traced runs op i rebuilt from the layers' public functions,
	// recording a span around each layer call. It must return what
	// call returns.
	traced func(i int, t *tracer) any
	// check turns an op's output into its digest line and says whether
	// the op failed.
	check func(i int, out any) (line string, failed bool)
}

// cycleHashes hashes the inputs of each cycle and drops the encoded
// inputs, which the timed ops must not keep alive on the heap.
func (s *seq) cycleHashes(cycleLen int) []string {
	var out []string
	for from := 0; from < s.n; from += cycleLen {
		h := sha256.New()
		for _, in := range s.inputs[from:min(from+cycleLen, s.n)] {
			fmt.Fprintf(h, "%d:", len(in))
			h.Write(in)
		}
		out = append(out, hex.EncodeToString(h.Sum(nil)))
	}
	s.inputs = nil
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // inputs are plain data built by this package
	}
	return b
}

var workloads = []*bench{
	{name: "campaign", cycleLen: campaignCycle, cycleSeconds: 0.63, warmup: 24, setup: campaignSetup},
	{name: "longsim", cycleLen: longsimCycle, cycleSeconds: 0.68, warmup: 4, setup: longsimSetup},
	{name: "breakdown", cycleLen: breakdownCycle, cycleSeconds: 2.4, warmup: 3, setup: breakdownSetup},
	{name: "export", cycleLen: campaignCycle, cycleSeconds: 2.3, warmup: 8, setup: exportSetup},
}

func workloadByName(name string) *bench {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// campaignCycle is one whole product cycle of scenario.Gen: every
// archetype × policy × scheme × CPU count appears equally often.
const campaignCycle = 264

func genScenarios(seed int64, n int) ([]*scenario.Scenario, [][]byte) {
	ss := make([]*scenario.Scenario, n)
	in := make([][]byte, n)
	for i := range ss {
		ss[i] = scenario.Gen(seed, i, 0)
		in[i] = mustJSON(ss[i])
	}
	return ss, in
}

// ---- campaign: the emfuzz per-scenario path ----

func campaignSetup(seed int64, n int) *seq {
	ss, in := genScenarios(seed, n)
	return &seq{
		n:      len(ss),
		inputs: in,
		call:   func(i int) any { return scenario.RunSampled(ss[i], 0) },
		traced: func(i int, t *tracer) any { return runSampledTraced(ss[i], t) },
		check: func(i int, out any) (string, bool) {
			r := out.(*scenario.Result)
			h := sha256.New()
			for _, f := range r.Findings {
				fmt.Fprintf(h, "F %s %s\n", f.Oracle, f.Detail)
			}
			for _, a := range r.Anomalies {
				fmt.Fprintf(h, "A %s %s\n", a.Oracle, a.Detail)
			}
			line := fmt.Sprintf("%d %s completions=%d misses=%d feasible=%t findings=%d anomalies=%d detail=%x",
				i, ss[i].Name, r.Completions, r.Misses, r.Feasible, len(r.Findings), len(r.Anomalies), h.Sum(nil)[:8])
			return line, len(r.Findings) > 0
		},
	}
}

// runSampledTraced is scenario.RunSampled(s, 0) rebuilt from its public
// parts, with a span around each layer call. Findings are appended in
// the same order, so the result must equal RunSampled's.
func runSampledTraced(s *scenario.Scenario, t *tracer) (res *scenario.Result) {
	res = &scenario.Result{}
	finding := func(oracle, detail string) {
		res.Findings = append(res.Findings, scenario.Finding{Oracle: oracle, Detail: detail})
	}
	defer func() {
		if v := recover(); v != nil {
			finding(scenario.OraclePanic, fmt.Sprint(v))
		}
	}()

	var (
		sys  *kernel.Node
		aper []*kernel.Thread
		err  error
	)
	t.do("scenario.build", func() { sys, aper, err = scenario.Build(s) })
	if err != nil {
		finding(scenario.OraclePanic, "build: "+err.Error())
		return res
	}
	interval := s.Horizon / 256
	if interval <= 0 {
		interval = vtime.Microsecond
	}
	var rec *telemetry.Recorder
	t.do("telemetry", func() {
		rec, err = telemetry.Attach(sys.Kernel(), telemetry.Config{Interval: interval, Capacity: 512})
	})
	if err != nil {
		finding(scenario.OraclePanic, "telemetry: "+err.Error())
		return res
	}
	t.do("kernel.boot", func() { err = sys.Boot() })
	if err != nil {
		finding(scenario.OraclePanic, "boot: "+err.Error())
		return res
	}
	scheduleArrivals(s, sys, aper)
	simRun(t, sys, s.Horizon)

	st := sys.Stats()
	res.Misses, res.Completions = st.Misses, st.Completions
	countKernel(t, sys.Kernel())

	slo := telemetry.SLO{}
	for _, tk := range s.Tasks {
		if p := tk.Spec.Period.Micros(); p > slo.P99Us {
			slo.P99Us = p
		}
	}
	t.do("telemetry", func() {
		for _, msg := range telemetry.Analyze(rec.Series(), slo).Anomalies() {
			res.Anomalies = append(res.Anomalies, scenario.Finding{Oracle: scenario.AnnoTelemetry, Detail: msg})
		}
	})
	t.do("kernel.invariants", func() {
		for _, msg := range sys.Kernel().CheckInvariants() {
			finding(scenario.OracleInvariant, msg)
		}
	})

	log := sys.Trace()
	if d := log.Dropped(); d > 0 {
		finding(scenario.OracleTruncated, fmt.Sprintf("%d events dropped with capacity %d", d, s.TraceCapacity()))
	} else {
		if len(s.Mailboxes) > 0 || len(s.VLinks) > 0 {
			evs := traceCopy(t, log)
			t.do("syncheck", func() {
				if rep := syncheck.Check(evs); !rep.OK() {
					detail := fmt.Sprintf("unmatched receives: %d", rep.Unmatched)
					if !rep.Synchronizable {
						detail = "crown: " + strings.Join(rep.Crown, "; ")
					}
					finding(scenario.OracleSync, detail)
				}
			})
		}
		evs := traceCopy(t, log)
		t.count("trace.events", float64(len(evs)))
		t.do("attrib", func() {
			an, err := attrib.Analyze(evs, 0)
			if err != nil {
				finding(scenario.OracleResidual, "analyze: "+err.Error())
				return
			}
			t.count("attrib.activations", float64(len(an.Activations)))
			for i := range an.Activations {
				a := &an.Activations[i]
				if a.Aborted {
					continue
				}
				if r := a.Residual(); r != 0 {
					finding(scenario.OracleResidual, fmt.Sprintf("%s activation %d: residual %v", a.Task, a.Index, r))
				}
			}
			if s.InversionClean() {
				for _, iv := range an.Inversions {
					finding(scenario.OracleInversion, fmt.Sprintf("%s blocked on %s while %s ran [%v, %v]",
						iv.Task, iv.Sem, iv.Runner, iv.From, iv.To))
				}
			}
		})
	}

	if s.AnalysisClean() {
		t.do("analysis.feasible", func() { res.Feasible = scenario.Feasible(s) })
		if res.Feasible && st.Misses > 0 {
			finding(scenario.OracleFeasibleMiss, fmt.Sprintf("analysis feasible but %d misses in %v", st.Misses, s.Horizon))
		}
	}
	return res
}

// scheduleArrivals queues the scenario's aperiodic arrivals as engine
// events, as RunSampled and ExportTrace do.
func scheduleArrivals(s *scenario.Scenario, sys *kernel.Node, aper []*kernel.Thread) {
	eng := sys.Kernel().Engine()
	for i, th := range aper {
		if th == nil {
			continue
		}
		th := th
		for _, at := range s.Tasks[i].Arrivals {
			eng.At(at, "arrival", func() { sys.Kernel().ReleaseAperiodic(th) })
		}
	}
}

func simRun(t *tracer, sys *kernel.Node, d vtime.Duration) {
	eng := sys.Kernel().Engine()
	fired := eng.Fired()
	t.do("sim.run", func() { sys.Run(d) })
	t.count("sim.events", float64(eng.Fired()-fired))
}

func traceCopy(t *tracer, log *trace.Log) []trace.Event {
	var evs []trace.Event
	t.do("trace.copy", func() { evs = log.Events() })
	return evs
}

// countKernel adds the kernel's merged per-CPU counters to the traced
// run's per-layer counts.
func countKernel(t *tracer, k *kernel.Kernel) {
	shards := make([]*metrics.Set, k.NumCPUs())
	for c := range shards {
		shards[c] = k.MetricsOn(c)
	}
	m := metrics.MergeShards(shards)
	t.count("kernel.dispatches", float64(m.Get(metrics.Dispatches)))
	t.count("kernel.context_switches", float64(m.Get(metrics.ContextSwitches)))
	t.count("kernel.sched_selects", float64(m.Get(metrics.SchedSelects)))
	t.count("kernel.sem_acquires", float64(m.Get(metrics.SemAcquires)))
	t.count("kernel.ipc_sends", float64(m.Get(metrics.MailboxSends)+m.Get(metrics.VLinkSends)))
	t.count("kernel.migrations", float64(m.Get(metrics.Migrations)))
}

// ---- longsim: the emsim path ----

// longsimHorizon is the virtual time one longsim op simulates.
const longsimHorizon = 20 * vtime.Second

type longsimOp struct {
	N      int         `json:"n"`
	Policy string      `json:"policy"`
	CPUs   int         `json:"cpus"`
	Specs  []task.Spec `json:"specs"`
	Cfg    sim.Config  `json:"-"` // derived from Policy and CPUs
}

type longsimOut struct {
	stats kernel.Stats
	err   error
	bad   []string
}

// longsimCycle covers M ∈ {1, 4} × n ∈ {10, 20, 30, 40} × four policies.
const longsimCycle = 32

func longsimSetup(seed int64, count int) *seq {
	policies := []string{sim.PolicyCSD, sim.PolicyEDF, sim.PolicyRM, sim.PolicyFP}
	ops := make([]longsimOp, count)
	for k := range ops {
		j := k % longsimCycle
		m, n, p := []int{1, 4}[j/16], 10*(1+(j/4)%4), policies[j%4]
		// emsim's configuration: a one-event ring and response histograms.
		cfg := sim.Config{Policy: p, RecordResponses: true, TraceCapacity: 1}
		if m > 1 {
			cfg.CPUs, cfg.Lock = m, "percpu"
		}
		ops[k] = longsimOp{N: n, Policy: p, CPUs: m, Cfg: cfg,
			Specs: workload.Generate(workload.Config{N: n, Utilization: 0.8, Seed: workload.SeedFor(seed, n, k)})}
	}
	in := make([][]byte, len(ops))
	for i := range ops {
		in[i] = mustJSON(ops[i])
	}
	return &seq{
		n:      len(ops),
		inputs: in,
		call: func(i int) any {
			op := &ops[i]
			sys, err := kernel.Boot(op.Cfg, func(n *kernel.Node) error {
				for _, s := range op.Specs {
					n.AddTask(s)
				}
				return nil
			})
			if err != nil {
				return longsimOut{err: err}
			}
			sys.Run(longsimHorizon)
			return longsimOut{stats: sys.Stats(), bad: sys.Kernel().CheckInvariants()}
		},
		traced: func(i int, t *tracer) any {
			op := &ops[i]
			var (
				sys *kernel.Node
				err error
			)
			t.do("kernel.boot", func() {
				sys = kernel.NewNode(op.Cfg)
				for _, s := range op.Specs {
					sys.AddTask(s)
				}
				err = sys.Boot()
			})
			if err != nil {
				return longsimOut{err: err}
			}
			simRun(t, sys, longsimHorizon)
			countKernel(t, sys.Kernel())
			var bad []string
			t.do("kernel.invariants", func() { bad = sys.Kernel().CheckInvariants() })
			return longsimOut{stats: sys.Stats(), bad: bad}
		},
		check: func(i int, out any) (string, bool) {
			o := out.(longsimOut)
			op := &ops[i]
			prefix := fmt.Sprintf("%d %s n=%d cpus=%d", i, op.Policy, op.N, op.CPUs)
			if o.err != nil {
				return prefix + " boot error: " + o.err.Error(), true
			}
			line := fmt.Sprintf("%s %+v", prefix, o.stats)
			if len(o.bad) > 0 {
				line += " invariants: " + strings.Join(o.bad, "; ")
			}
			return line, o.stats.Completions == 0 || len(o.bad) > 0
		},
	}
}

// ---- breakdown: the Figures 3–5 sweep ----

type breakdownOp struct {
	N    int   `json:"n"`
	Div  int   `json:"div"`
	Seed int64 `json:"seed"` // BreakdownConfig.Seed
}

type breakdownFunc = func(*costmodel.Profile, []task.Spec) float64

func breakdownCSD(q int) breakdownFunc {
	return func(p *costmodel.Profile, s []task.Spec) float64 { return analysis.BreakdownCSD(p, s, q) }
}

// breakdownLayers gives, for each scheduler of
// experiments.BreakdownSchedulers, its span and the analysis call that
// BreakdownFigure makes for it.
var breakdownLayers = map[string]struct {
	span string
	run  breakdownFunc
}{
	"CSD-4": {"analysis.csd4", breakdownCSD(4)},
	"CSD-3": {"analysis.csd3", breakdownCSD(3)},
	"CSD-2": {"analysis.csd2", breakdownCSD(2)},
	"EDF":   {"analysis.edf", analysis.BreakdownEDF},
	"RM":    {"analysis.rm", analysis.BreakdownRM},
}

// breakdownCycle covers n ∈ {5, 10, …, 50} × period divisor ∈ {1, 2, 3}.
const breakdownCycle = 30

func breakdownSetup(seed int64, count int) *seq {
	ops := make([]breakdownOp, count)
	for k := range ops {
		j := k % breakdownCycle
		// Each cycle runs BreakdownFigure under a seed of its own, so it
		// draws new task sets.
		ops[k] = breakdownOp{N: 5 * (1 + j%10), Div: 1 + j/10, Seed: workload.SeedFor(seed, 0, k/breakdownCycle)}
	}
	genCfg := func(op breakdownOp) workload.Config {
		// The task set BreakdownFigure generates for (n, workload 0).
		return workload.Config{N: op.N, PeriodDiv: op.Div, Utilization: 0.5,
			Seed: workload.SeedFor(op.Seed, op.N, 0)}
	}
	in := make([][]byte, len(ops))
	for i, op := range ops {
		in[i] = mustJSON(struct {
			Op    breakdownOp
			Specs []task.Spec
		}{op, workload.Generate(genCfg(op))})
	}
	prof := costmodel.M68040()
	return &seq{
		n:      len(ops),
		inputs: in,
		call: func(i int) any {
			res := experiments.BreakdownFigure(experiments.BreakdownConfig{
				Ns: []int{ops[i].N}, PeriodDiv: ops[i].Div, Workloads: 1, Seed: ops[i].Seed,
				Par: experiments.Serial,
			})
			vals := make([]float64, len(experiments.BreakdownSchedulers))
			for si, name := range experiments.BreakdownSchedulers {
				vals[si] = res.Series[name][0]
			}
			return vals
		},
		traced: func(i int, t *tracer) any {
			var specs []task.Spec
			t.do("workload.generate", func() { specs = workload.Generate(genCfg(ops[i])) })
			vals := make([]float64, len(experiments.BreakdownSchedulers))
			for si, name := range experiments.BreakdownSchedulers {
				var v float64
				l := breakdownLayers[name]
				t.do(l.span, func() { v = l.run(prof, specs) })
				vals[si] = 100 * v // BreakdownFigure's mean over one workload, in %
			}
			return vals
		},
		check: func(i int, out any) (string, bool) {
			vals := out.([]float64)
			var b strings.Builder
			fmt.Fprintf(&b, "%d n=%d div=%d", i, ops[i].N, ops[i].Div)
			failed := false
			for si, name := range experiments.BreakdownSchedulers {
				v := vals[si]
				fmt.Fprintf(&b, " %s=%s", name, strconv.FormatFloat(v, 'g', -1, 64))
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 100 {
					failed = true
				}
			}
			return b.String(), failed
		},
	}
}

// ---- export: the -trace-out path ----

func exportSetup(seed int64, n int) *seq {
	ss, in := genScenarios(seed, n)
	var buf bytes.Buffer // reused: one op's document at a time
	return &seq{
		n:      len(ss),
		inputs: in,
		call: func(i int) any {
			buf.Reset()
			return scenario.ExportTrace(ss[i], &buf)
		},
		traced: func(i int, t *tracer) any {
			buf.Reset()
			err := exportTraced(ss[i], &buf, t)
			t.count("trace.perfetto_out_bytes", float64(buf.Len()))
			return err
		},
		check: func(i int, out any) (string, bool) {
			if err, _ := out.(error); err != nil {
				return fmt.Sprintf("%d %s error: %v", i, ss[i].Name, err), true
			}
			sum := sha256.Sum256(buf.Bytes())
			return fmt.Sprintf("%d %s bytes=%d sha256=%x", i, ss[i].Name, buf.Len(), sum), false
		},
	}
}

// exportTraced is scenario.ExportTrace rebuilt from its public parts.
func exportTraced(s *scenario.Scenario, buf *bytes.Buffer, t *tracer) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("scenario: replay panicked: %v", v)
		}
	}()
	var (
		sys  *kernel.Node
		aper []*kernel.Thread
	)
	t.do("scenario.build", func() { sys, aper, err = scenario.Build(s) })
	if err != nil {
		return err
	}
	t.do("kernel.boot", func() { err = sys.Boot() })
	if err != nil {
		return err
	}
	scheduleArrivals(s, sys, aper)
	simRun(t, sys, s.Horizon)
	countKernel(t, sys.Kernel())
	if d := sys.Trace().Dropped(); d > 0 {
		return fmt.Errorf("scenario: trace ring dropped %d events", d)
	}
	t.do("trace.perfetto", func() { err = sys.Trace().ExportPerfetto(buf) })
	return err
}
