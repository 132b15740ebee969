package scenario

import (
	"fmt"
	"strings"

	"emeralds/internal/analysis"
	"emeralds/internal/attrib"
	"emeralds/internal/costmodel"
	"emeralds/internal/ipc/syncheck"
	"emeralds/internal/kernel"
	"emeralds/internal/metrics"
	"emeralds/internal/sched"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/telemetry"
	"emeralds/internal/trace"
	"emeralds/internal/vtime"
)

// Oracle kinds, in the order the findings report groups them.
const (
	OracleFeasibleMiss = "feasible-miss"   // analysis said schedulable, simulator missed
	OracleResidual     = "attrib-residual" // activation partition did not sum exactly
	OracleInversion    = "inversion"       // priority-inversion window outside the blocking chain
	OracleInvariant    = "invariant"       // kernel quiescent-state audit failed
	OracleSync         = "syncheck"        // observed IPC not synchronizable / non-FIFO
	OracleTruncated    = "truncated"       // trace ring overflowed despite horizon sizing
	OraclePanic        = "panic"           // the simulation itself panicked
)

// AnnoTelemetry is the fifth, advisory channel: flight-recorder SLO
// failures, burn-rate alerts, and change points. Telemetry anomalies
// annotate findings — they localize *when* a run went wrong — but are
// not oracle violations: an anomalous-but-correct run (an infeasible
// set missing deadlines, exactly as analysis predicts) must not fail
// the campaign.
const AnnoTelemetry = "telemetry-anomaly"

// Finding is one oracle violation.
type Finding struct {
	Oracle string `json:"oracle"`
	Detail string `json:"detail"`
}

// Result is the outcome of running one scenario.
type Result struct {
	Findings    []Finding `json:"findings,omitempty"`
	Misses      uint64    `json:"misses"`
	Completions uint64    `json:"completions"`
	// Feasible is the analysis verdict; meaningful only when the
	// scenario is analysis-clean.
	Feasible bool `json:"feasible"`
	// Anomalies are AnnoTelemetry annotations from the flight recorder:
	// advisory, never counted as violations.
	Anomalies []Finding `json:"anomalies,omitempty"`

	// counters is the merged per-CPU kernel counter set, fed to the live
	// scrape surface during campaigns.
	counters *metrics.Set
}

// Counters returns the run's merged kernel counters (nil before Run).
func (r *Result) Counters() *metrics.Set { return r.counters }

// Run executes the scenario and checks every applicable oracle. It
// never panics: a panic anywhere in build/boot/simulate surfaces as an
// OraclePanic finding so the campaign keeps going and the scenario can
// be minimized like any other violation.
func Run(s *Scenario) *Result { return RunSampled(s, 0) }

// RunSampled is Run with the flight-recorder cadence overridable: a
// positive sampleUs (virtual microseconds, the emfuzz -sample-us flag)
// replaces the default ~256-samples-per-horizon interval. The recorder
// only reads kernel state, so the cadence never affects the oracles —
// only the telemetry annotations' resolution.
func RunSampled(s *Scenario, sampleUs float64) (res *Result) {
	res = &Result{}
	defer func() {
		if v := recover(); v != nil {
			res.Findings = append(res.Findings, Finding{OraclePanic, fmt.Sprint(v)})
		}
	}()

	sys, aper, err := Build(s)
	if err != nil {
		res.Findings = append(res.Findings, Finding{OraclePanic, "build: " + err.Error()})
		return res
	}
	runBuilt(s, sys, aper, sampleUs, res)
	return res
}

// runBuilt is RunSampled past Build: it boots and simulates the built
// node and records the oracles' verdicts in res.
func runBuilt(s *Scenario, sys *kernel.Node, aper []*kernel.Thread, sampleUs float64, res *Result) {
	// The trace oracles consume events as the kernel emits them, so the
	// node's log never allocates its ring. Syncheck is fed only where it
	// applies.
	log := sys.Trace()
	replay := attrib.NewReplay()
	var checker *syncheck.Checker
	if len(s.Mailboxes) > 0 || len(s.VLinks) > 0 {
		checker = syncheck.NewChecker()
	}
	log.Stream(func(e trace.Event) {
		replay.Step(e)
		if checker != nil {
			checker.Add(e)
		}
	})
	// Flight recorder. The sampler only reads kernel state, so the
	// simulation (and every other oracle) is unaffected by its presence.
	rec, err := telemetry.Attach(sys.Kernel(), recorderConfig(s, sampleUs))
	if err != nil {
		res.Findings = append(res.Findings, Finding{OraclePanic, "telemetry: " + err.Error()})
		return
	}
	if err := sys.Boot(); err != nil {
		res.Findings = append(res.Findings, Finding{OraclePanic, "boot: " + err.Error()})
		return
	}
	scheduleArrivals(s, sys, aper)
	sys.Run(s.Horizon)

	st := sys.Stats()
	res.Misses, res.Completions = st.Misses, st.Completions

	shards := make([]*metrics.Set, sys.Kernel().NumCPUs())
	for c := range shards {
		shards[c] = sys.Kernel().MetricsOn(c)
	}
	res.counters = metrics.MergeShards(shards)

	res.Anomalies = telemetryAnomalies(s, rec.Series())

	// (d) kernel invariants.
	for _, msg := range sys.Kernel().CheckInvariants() {
		res.Findings = append(res.Findings, Finding{OracleInvariant, msg})
	}

	// (b)/(c) replay the trace. Build sizes the ring an export would
	// retain from the horizon, so a run emitting more events than that
	// is itself a finding: the sizing formula is the contract ExportTrace
	// and attrib's truncation refusal rely on.
	if f, over := truncation(log.Total(), s.TraceCapacity()); over {
		res.Findings = append(res.Findings, f)
	} else {
		if checker != nil {
			res.Findings = append(res.Findings, syncFindings(checker.Finish())...)
		}
		an, err := replay.Finish()
		res.Findings = append(res.Findings, attribFindings(s, an, err)...)
	}

	// (a) differential oracle, only where the analysis is exact.
	if s.AnalysisClean() {
		res.Feasible = Feasible(s)
		if res.Feasible && st.Misses > 0 {
			res.Findings = append(res.Findings, Finding{OracleFeasibleMiss,
				fmt.Sprintf("analysis feasible but %d misses in %v", st.Misses, s.Horizon)})
		}
	}
}

// telemetryAnomalies are the (e) annotations over the flight
// recorder's series: SLO failures, burn-rate alerts, and change points.
// The p99 objective scales with the task set — a response beyond the
// longest period is pathological for any workload, while judging a
// 500 ms-period set against the stock 10 ms target would flag every
// slow-but-healthy scenario.
func telemetryAnomalies(s *Scenario, series *telemetry.Series) []Finding {
	slo := telemetry.SLO{}
	for _, t := range s.Tasks {
		if p := t.Spec.Period.Micros(); p > slo.P99Us {
			slo.P99Us = p
		}
	}
	var out []Finding
	for _, msg := range telemetry.Analyze(series, slo).Anomalies() {
		out = append(out, Finding{AnnoTelemetry, msg})
	}
	return out
}

// syncFindings is the (f) synchronizability verdict. Every generated
// communication topology is a DAG (pipelines, fans), which is provably
// crown-free — so any crown in the observed send/receive order, or a
// receive that FIFO matching cannot pair with an earlier send, is a
// kernel bug, not a workload property. Applies to any scenario with
// queues.
func syncFindings(rep *syncheck.Report) []Finding {
	if rep.OK() {
		return nil
	}
	detail := fmt.Sprintf("unmatched receives: %d", rep.Unmatched)
	if !rep.Synchronizable {
		detail = "crown: " + strings.Join(rep.Crown, "; ")
	}
	return []Finding{{OracleSync, detail}}
}

// attribFindings are the (b) residual and (c) inversion verdicts over
// the run's attribution (or the error that stopped its replay).
func attribFindings(s *Scenario, an *attrib.Analysis, err error) []Finding {
	if err != nil {
		return []Finding{{OracleResidual, "analyze: " + err.Error()}}
	}
	var out []Finding
	for i := range an.Activations {
		a := &an.Activations[i]
		if a.Aborted {
			continue
		}
		if r := a.Residual(); r != 0 {
			out = append(out, Finding{OracleResidual,
				fmt.Sprintf("%s activation %d: residual %v", a.Task, a.Index, r)})
		}
	}
	if s.InversionClean() {
		for _, iv := range an.Inversions {
			out = append(out, Finding{OracleInversion,
				fmt.Sprintf("%s blocked on %s while %s ran [%v, %v]",
					iv.Task, iv.Sem, iv.Runner, iv.From, iv.To)})
		}
	}
	return out
}

// truncation is the OracleTruncated finding for a run that emitted
// total trace events, judged against the ring capacity Build sizes: a
// ring that small would have dropped the excess.
func truncation(total uint64, capacity int) (Finding, bool) {
	if total <= uint64(capacity) {
		return Finding{}, false
	}
	return Finding{OracleTruncated,
		fmt.Sprintf("%d events dropped with capacity %d", total-uint64(capacity), capacity)}, true
}

// recorderConfig plans the flight recorder for a run: ~256 samples
// across the horizon unless sampleUs overrides the cadence. Sampling at
// interval, 2·interval, … ≤ Horizon takes at most Horizon/interval + 1
// samples, so that bound (capped at 512) sizes the ring without ever
// overwriting one.
func recorderConfig(s *Scenario, sampleUs float64) telemetry.Config {
	interval := s.Horizon / 256
	if interval <= 0 {
		interval = vtime.Microsecond
	}
	if sampleUs > 0 {
		interval = vtime.Duration(sampleUs * 1000)
	}
	capacity := 512
	if interval > 0 {
		capacity = int(min(512, s.Horizon/interval+2))
	}
	return telemetry.Config{Interval: interval, Capacity: capacity}
}

// Feasible runs the schedulability analysis the simulator's Boot
// implicitly claims: on a single CPU the policy's feasibility test over
// the whole set; on a multicore build the same test per CPU over the
// deterministic sched.AssignCPUs split Boot will use. For CSD the claim
// is "some partition passes §5.5.3's search" — when none does, core
// degrades to the all-DP split without claiming schedulability, so no
// claim is made here either.
func Feasible(s *Scenario) bool {
	prof := s.Profile()
	if s.CPUs <= 1 {
		specs := make([]task.Spec, len(s.Tasks))
		for i, t := range s.Tasks {
			specs[i] = t.Spec
		}
		return feasibleOn(s.Policy, prof, specs)
	}
	// Mirror kernel.bootCPUs: placement is a pure function of the specs
	// in admission order.
	tcbs := make([]*task.TCB, len(s.Tasks))
	for i, t := range s.Tasks {
		tcbs[i] = task.New(i, t.Spec)
	}
	perCPU := sched.AssignCPUs(tcbs, s.CPUs)
	for _, cpuTasks := range perCPU {
		var specs []task.Spec
		for _, t := range cpuTasks {
			specs = append(specs, t.Spec)
		}
		if !feasibleOn(s.Policy, prof, specs) {
			return false
		}
	}
	return true
}

func feasibleOn(policy string, prof *costmodel.Profile, specs []task.Spec) bool {
	if len(specs) == 0 {
		return true
	}
	switch policy {
	case sim.PolicyEDF:
		return analysis.FeasibleEDF(prof, specs)
	case sim.PolicyRM:
		return analysis.FeasibleRM(prof, specs)
	case sim.PolicyRMHeap:
		return analysis.FeasibleRMHeap(prof, specs)
	case sim.PolicyCSD:
		_, _, ok := analysis.BestPartition(prof, analysis.SortRM(specs), 3)
		return ok
	}
	return false
}
