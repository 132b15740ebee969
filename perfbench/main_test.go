package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	got := tailOf(xs)
	// p95 leaves only 5 samples above it; p90 (90.1) leaves 91..100.
	if got.Pct != 90 || got.Beyond != 10 || math.Abs(got.Value-90.1) > 1e-9 {
		t.Fatalf("tailOf(1..100) = %+v, want p90 = 90.1 with 10 beyond", got)
	}

	big := make([]float64, 2000)
	for i := range big {
		big[i] = float64(i)
	}
	if got := tailOf(big); got.Pct != 99 || got.Beyond != 20 {
		t.Fatalf("tailOf(2000 samples) = %+v, want p99 with 20 beyond", got)
	}

	// Too few samples for any ladder percentile: the maximum, with the
	// count saying nothing lies beyond it.
	if got := tailOf([]float64{3, 1, 2}); got.Pct != 100 || got.Value != 3 || got.Beyond != 0 {
		t.Fatalf("tailOf(3 samples) = %+v, want the max at p100 with 0 beyond", got)
	}
}

func TestTailIgnoresTiesAtThePercentile(t *testing.T) {
	// 95 equal samples then 5 larger ones: only 5 lie strictly beyond
	// any percentile up to p95, so no ladder step qualifies.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
		if i >= 95 {
			xs[i] = 2
		}
	}
	if got := tailOf(xs); got.Pct != 100 || got.Beyond != 0 {
		t.Fatalf("tailOf(ties) = %+v, want no qualifying percentile", got)
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 2.75, 8.25},
		// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
		{[]float64{5, 1, 4, 2, 3}, 3, 1.5, 4.5},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); m != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: median %v quartiles %v %v, want %v %v %v", c.xs, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
}

// firstOps runs the first n ops of w for seed 1 through the public
// entry point and returns the sequence and the digest lines.
func firstOps(w *bench, n int) (*seq, []string) {
	sq := w.setup(defaultSeed, n)
	return sq, timedLoop(sq, n).lines
}

func TestDigestDetectsPerturbedOutput(t *testing.T) {
	w := workloadByName("breakdown")
	sq, lines := firstOps(w, 2)
	inputs := sq.cycleHashes(1) // one-op cycles keep the test short
	d := makeDigest(inputs, 1, lines)
	back, err := parseDigest(d.text())
	if err != nil {
		t.Fatal(err)
	}
	if diff := d.diff(back); diff != "" {
		t.Fatalf("digest does not round-trip: %s", diff)
	}

	perturbed := append([]string(nil), lines...)
	perturbed[1] = strings.Replace(perturbed[1], "EDF=", "EDF=1", 1)
	if diff := makeDigest(inputs, 1, perturbed).diff(d); !strings.Contains(diff, "cycle 1: outputs differ") {
		t.Fatalf("perturbed op 1 gave diff %q", diff)
	}
	perturbed = append([]string(nil), lines...)
	perturbed[0] += " "
	if diff := makeDigest(inputs, 1, perturbed).diff(d); !strings.Contains(diff, "cycle 0 op 0") {
		t.Fatalf("perturbed op 0 gave diff %q, want the op named", diff)
	}

	other := w.setup(defaultSeed+1, 2).cycleHashes(1)
	if diff := makeDigest(other, 1, lines).diff(d); !strings.Contains(diff, "inputs differ") {
		t.Fatalf("other inputs gave diff %q", diff)
	}
}

func TestFingerprintFollowsSeedAndLength(t *testing.T) {
	for _, w := range workloads {
		fp := func(seed int64, n int) string {
			return fingerprint(w.name, n, w.setup(seed, n).cycleHashes(w.cycleLen))
		}
		a := fp(1, w.cycleLen)
		if b := fp(1, w.cycleLen); a != b {
			t.Errorf("%s: same seed gave fingerprints %.12s and %.12s", w.name, a, b)
		}
		if b := fp(2, w.cycleLen); a == b {
			t.Errorf("%s: seeds 1 and 2 share fingerprint %.12s", w.name, a)
		}
		if b := fp(1, 2*w.cycleLen); a == b {
			t.Errorf("%s: one and two cycles share fingerprint %.12s", w.name, a)
		}
	}
}

func TestTracedRunReproducesUntraced(t *testing.T) {
	// Enough ops to reach every campaign archetype (11), including the
	// mailbox and vlink ones that run syncheck.
	counts := map[string]int{"campaign": 22, "longsim": 8, "breakdown": 3, "export": 11}
	for _, w := range workloads {
		sq, want := firstOps(w, counts[w.name])
		tr := newTracer()
		failed, mismatched := tracedLoop(sq, want, tr)
		if failed != 0 || mismatched != 0 {
			t.Errorf("%s: traced rebuild: %d failed, %d of %d ops differ", w.name, failed, mismatched, len(want))
		}
		if len(tr.open) != 0 {
			t.Errorf("%s: %d spans left open", w.name, len(tr.open))
		}
		self := tr.selfTimes()
		if un := float64(self[rootSpan].Ns) / float64(tr.rootNs()); un > 0.2 {
			t.Errorf("%s: %.0f%% of traced op time is in no layer span", w.name, 100*un)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "op", Parent: -1, Start: 0, End: 100, Bytes: 50},
		{Name: "a", Parent: 0, Start: 10, End: 40, Bytes: 20},
		{Name: "b", Parent: 1, Start: 15, End: 25, Bytes: 5},
		{Name: "a", Parent: 0, Start: 50, End: 60, Bytes: 10},
	}}
	self := tr.selfTimes()
	want := map[string]layerSelf{"op": {60, 20}, "a": {30, 25}, "b": {10, 5}}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %+v, want %+v", name, self[name], w)
		}
	}
}

// TestRunPrintsEveryBenchmarkMetric runs the command once per trace
// mode on the shortest workload and checks the last output line against
// the metric lists in BENCHMARK.json.
func TestRunPrintsEveryBenchmarkMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for mode, want := range map[string][]metric{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "longsim", "--seed", "3", "--seconds", "1", "--trace", mode}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", mode, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   *bool                  `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    *int                   `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", mode, err)
		}
		if res.Correct == nil || !*res.Correct || res.Failed == nil || res.Attempted < 1 {
			t.Fatalf("trace %s: result %s", mode, lines[len(lines)-1])
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, BENCHMARK.json lists %d", mode, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", mode, m.Name, got, m.Unit)
			}
		}
	}
}

func TestCompareRefusesDifferentInputs(t *testing.T) {
	base, head := t.TempDir(), t.TempDir()
	write := func(dir string, fp string, ops float64) {
		r := record{Workload: "longsim", Seed: 3, Fingerprint: fp,
			Metrics: map[string]metricValue{"ops_per_s": {ops, "1/s"}}}
		data, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dir+"/longsim-seed3-trace0.json", data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(base, "aa", 40)
	write(head, "aa", 50)
	var out, errOut bytes.Buffer
	if code := compareCmd([]string{base, head}, &out, &errOut); code != 0 || !strings.Contains(out.String(), "1/1") {
		t.Fatalf("matching pair: exit %d, output %q %q", code, out.String(), errOut.String())
	}
	write(head, "bb", 50)
	if code := compareCmd([]string{base, head}, &out, &errOut); code != 1 {
		t.Fatalf("different fingerprints: exit %d, want 1", code)
	}
}
