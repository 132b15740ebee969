package scenario

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"emeralds/internal/attrib"
	"emeralds/internal/ipc/syncheck"
	"emeralds/internal/metrics"
	"emeralds/internal/telemetry"
	"emeralds/internal/trace"
)

// ringReference runs s the way the campaign did before its oracles
// streamed: the node retains its whole trace in a ring, the flight
// recorder keeps 512 samples, and syncheck and attrib replay copies of
// the ring after the run.
func ringReference(t *testing.T, s *Scenario) *Result {
	t.Helper()
	res := &Result{}
	sys, aper, err := Build(s)
	if err != nil {
		t.Fatalf("%s %d: build: %v", s.Name, s.Index, err)
	}
	cfg := recorderConfig(s, 0)
	cfg.Capacity = 512
	rec, err := telemetry.Attach(sys.Kernel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Boot(); err != nil {
		t.Fatalf("%s %d: boot: %v", s.Name, s.Index, err)
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
	for _, msg := range sys.Kernel().CheckInvariants() {
		res.Findings = append(res.Findings, Finding{OracleInvariant, msg})
	}
	log := sys.Trace()
	if d := log.Dropped(); d > 0 {
		res.Findings = append(res.Findings, Finding{OracleTruncated,
			fmt.Sprintf("%d events dropped with capacity %d", d, s.TraceCapacity())})
	} else {
		if len(s.Mailboxes) > 0 || len(s.VLinks) > 0 {
			res.Findings = append(res.Findings, syncFindings(syncheck.Check(log.Events()))...)
		}
		an, err := attrib.Analyze(log.Events(), 0)
		res.Findings = append(res.Findings, attribFindings(s, an, err)...)
	}
	if s.AnalysisClean() {
		res.Feasible = Feasible(s)
		if res.Feasible && st.Misses > 0 {
			res.Findings = append(res.Findings, Finding{OracleFeasibleMiss,
				fmt.Sprintf("analysis feasible but %d misses in %v", st.Misses, s.Horizon)})
		}
	}
	return res
}

// equivalenceScenarios are two whole 264-index product cycles at mixed
// CPU counts plus the committed repro corpus.
func equivalenceScenarios(t *testing.T) []*Scenario {
	t.Helper()
	var ss []*Scenario
	for i := 0; i < 2*264; i++ {
		ss = append(ss, Gen(1, i, 0))
	}
	files, err := filepath.Glob("testdata/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no repro corpus: %v", err)
	}
	for _, f := range files {
		s, err := ReadRepro(f)
		if err != nil {
			t.Fatal(err)
		}
		ss = append(ss, s)
	}
	return ss
}

// TestRunSampledMatchesRingReference: streaming the trace into the
// oracles during the run must give exactly the Result that replaying a
// retained ring afterwards gives, findings and anomalies included.
func TestRunSampledMatchesRingReference(t *testing.T) {
	findings := 0
	for _, s := range equivalenceScenarios(t) {
		got, want := RunSampled(s, 0), ringReference(t, s)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s %d: streamed %+v\nring reference %+v", s.Name, s.Index, got, want)
		}
		findings += len(got.Findings) + len(got.Anomalies)
	}
	if findings == 0 {
		t.Error("no scenario produced a finding or anomaly; the comparison lost its teeth")
	}
}

// TestRunSampledRetainsNoEvents: the campaign path forwards every
// event to its oracles and never allocates a trace ring.
func TestRunSampledRetainsNoEvents(t *testing.T) {
	for i := 0; i < 24; i++ {
		s := Gen(1, i, 0)
		sys, aper, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		res := &Result{}
		runBuilt(s, sys, aper, 0, res)
		log := sys.Trace()
		if log.Total() == 0 || res.Completions == 0 {
			t.Fatalf("%s %d: nothing traced (%d events, %d completions)", s.Name, i, log.Total(), res.Completions)
		}
		if n := len(log.Events()); n != 0 || log.Dropped() != 0 {
			t.Errorf("%s %d: log retained %d events (dropped %d), want 0", s.Name, i, n, log.Dropped())
		}
	}
}

// TestTruncationWording pins the truncated finding on a constructed
// overflow: it must report exactly what a ring of the scenario's
// capacity would have dropped.
func TestTruncationWording(t *testing.T) {
	ring, streamed := trace.New(5), trace.New(5)
	streamed.Stream(func(trace.Event) {})
	for i := 0; i < 8; i++ {
		ring.Add(0, trace.Release, "t", "")
		streamed.Add(0, trace.Release, "t", "")
	}
	f, over := truncation(streamed.Total(), 5)
	want := Finding{OracleTruncated, "3 events dropped with capacity 5"}
	if !over || f != want {
		t.Errorf("truncation = %+v, %v; want %+v", f, over, want)
	}
	if ring.Dropped() != 3 {
		t.Errorf("ring of 5 dropped %d of 8, finding says 3", ring.Dropped())
	}
	if _, over := truncation(5, 5); over {
		t.Error("a run that exactly fills the ring was reported truncated")
	}
}

// TestRecorderSizedToRun: the flight recorder's run-sized ring yields a
// byte-identical series to the 512-sample ring it replaced, at the
// default cadence and under -sample-us overrides.
func TestRecorderSizedToRun(t *testing.T) {
	series := func(s *Scenario, cfg telemetry.Config) []byte {
		sys, aper, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		sys.Trace().Stream(func(trace.Event) {}) // the series alone is compared
		rec, err := telemetry.Attach(sys.Kernel(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Boot(); err != nil {
			t.Fatal(err)
		}
		scheduleArrivals(s, sys, aper)
		sys.Run(s.Horizon)
		if cfg.Capacity < 512 && rec.Ticks() > cfg.Capacity {
			t.Fatalf("%s %d: %d samples overflow run-sized capacity %d", s.Name, s.Index, rec.Ticks(), cfg.Capacity)
		}
		b, err := json.Marshal(rec.Series())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	stride := 1
	if testing.Short() {
		stride = 3 // coprime with the archetype period: still every archetype, policy and CPU count
	}
	for i := 0; i < 264; i += stride {
		s := Gen(1, i, 0)
		for _, us := range []float64{0, 500, 1e9} {
			cfg := recorderConfig(s, us)
			full := cfg
			full.Capacity = 512
			if got, want := series(s, cfg), series(s, full); string(got) != string(want) {
				t.Fatalf("%s %d -sample-us %v: capacity %d series differs from capacity 512",
					s.Name, i, us, cfg.Capacity)
			}
		}
	}
}
