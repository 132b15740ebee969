// Command perfbench is the repository's benchmark: one closed-loop
// client on one goroutine drives a fixed, seed-generated op sequence
// through the tools' public entry points and reports end-to-end host
// time, allocation and set-up metrics, or, with --trace 1, a per-layer
// split of the same ops. Every op's output is checked, and the digest
// of the default seed's outputs is compared with golden/<workload>.txt.
//
//	perfbench --workload campaign --seed 1 --seconds 20 --trace 0
//	perfbench compare base/ head/     # paired records; refuses different inputs
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"
)

// procs pins GOMAXPROCS: one mutator thread plus the garbage
// collector's share of it. A second P lets background marking run on
// the other vCPU, whose availability on a shared host varies run to
// run.
const procs = 1

// defaultSeed is the seed whose output digests are committed.
const defaultSeed = 1

// setupReps is how many times set-up (input generation plus warm-up)
// runs; setup_s is the median.
const setupReps = 5

//go:embed golden/*.txt
var goldenFS embed.FS

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "", "workload: campaign, longsim, breakdown or export")
	seed := flags.Int64("seed", defaultSeed, "seed the inputs are generated from")
	seconds := flags.Int("seconds", 10, "nominal measured time; sets a fixed cycle count per workload")
	traceFlag := flags.Int("trace", 0, "1 = also run the traced layer split and report per-layer metrics")
	outDir := flags.String("out", "", "directory for the run record and spans (none if empty)")
	digestOut := flags.String("digest-out", "", "write this run's output digest to the file (golden format)")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload {campaign|longsim|breakdown|export}, --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	rec, err := measure(w, *seed, *seconds, *traceFlag == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *digestOut != "" {
		if err := os.WriteFile(*digestOut, []byte(rec.digest.text()), 0o644); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if *outDir != "" {
		if err := rec.write(*outDir); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	rec.summarize(stderr)
	line, err := json.Marshal(rec.result())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// loopStats is what one untraced pass over the op sequence measured.
type loopStats struct {
	ops, failed int
	latMs       []float64
	opNs        int64
	allocBytes  uint64
	allocObjs   uint64
	lines       []string // each op's digest line
	wallNs      int64    // wall time of the whole loop, checks included
	cpuNs       int64    // process CPU time over the same interval
}

// timedLoop runs the first n ops of sq, timing each call and reading
// the heap counters around it. Checks run between ops, outside the
// timer.
func timedLoop(sq *seq, n int) (ls loopStats) {
	ls = loopStats{latMs: make([]float64, 0, n), lines: make([]string, 0, n)}
	ms := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	start, cpu0 := time.Now(), processCPU()
	defer func() { ls.wallNs, ls.cpuNs = int64(time.Since(start)), int64(processCPU()-cpu0) }()
	for i := 0; i < n; i++ {
		metrics.Read(ms)
		b0, o0 := ms[0].Value.Uint64(), ms[1].Value.Uint64()
		t0 := time.Now()
		out := sq.call(i)
		d := time.Since(t0)
		metrics.Read(ms)
		ls.allocBytes += ms[0].Value.Uint64() - b0
		ls.allocObjs += ms[1].Value.Uint64() - o0
		ls.opNs += int64(d)
		ls.latMs = append(ls.latMs, float64(d)/1e6)
		ls.ops++
		line, failed := sq.check(i, out)
		if failed {
			ls.failed++
		}
		ls.lines = append(ls.lines, line)
	}
	return ls
}

// tracedLoop runs the first len(want) ops of sq through the traced
// rebuild and counts the ops whose digest line differs from want, the
// untraced call's.
func tracedLoop(sq *seq, want []string, t *tracer) (failed, mismatched int) {
	for i := range want {
		t.op = i
		t.begin(rootSpan)
		out := sq.traced(i, t)
		t.end()
		line, bad := sq.check(i, out)
		if bad {
			failed++
		}
		if line != want[i] {
			mismatched++
		}
	}
	return failed, mismatched
}

// measure runs one benchmark run and returns its record.
func measure(w *bench, seed int64, seconds int, traced bool, stderr io.Writer) (*record, error) {
	runtime.GOMAXPROCS(procs)
	rec := newRecord(w, seed)
	rec.RefMsBefore = refProbe()
	cycles := max(1, int(math.Round(float64(seconds)/w.cycleSeconds)))
	tracedCycles := 0
	if traced {
		// The untraced part is the reference for equivalence and for the
		// tracing overhead; the traced part re-runs its first cycles.
		tracedCycles = max(1, cycles/2)
		cycles = max(1, cycles-tracedCycles)
	}
	n := cycles * w.cycleLen

	var (
		sq     *seq
		inputs []string
	)
	for r := 0; r < setupReps; r++ {
		sq = nil
		runtime.GC() // every repetition starts from the same heap
		t0 := time.Now()
		sq = w.setup(seed, n)
		inputs = sq.cycleHashes(w.cycleLen)
		for i := 0; i < w.warmup; i++ {
			sq.check(i, sq.call(i))
		}
		rec.SetupS = append(rec.SetupS, time.Since(t0).Seconds())
	}
	rec.Fingerprint = fingerprint(w.name, n, inputs)
	rec.CycleLen, rec.Cycles, rec.Warmup = w.cycleLen, cycles, w.warmup
	runtime.GC()
	rec.loop = timedLoop(sq, n)
	rec.digest = makeDigest(inputs, w.cycleLen, rec.loop.lines)

	var tr *tracer
	tracedOps, tracedFailed := tracedCycles*w.cycleLen, 0
	if traced {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		tr = newTracer()
		tracedFailed, rec.TraceMismatches = tracedLoop(sq, rec.loop.lines[:tracedOps], tr)
		runtime.ReadMemStats(&ms1)
		rec.gcCycles = float64(ms1.NumGC - ms0.NumGC)
		rec.gcPauseMs = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
		rec.TracedOps = tracedOps
	}
	rec.RefMsAfter = refProbe()
	rec.PeakRSSMB = peakRSSMB()
	rec.Attempted = rec.loop.ops + tracedOps
	rec.Failed = rec.loop.failed + tracedFailed

	if seed == defaultSeed {
		if err := rec.checkGolden(stderr); err != nil {
			return nil, err
		}
	}
	rec.fill(tr)
	return rec, nil
}

// fingerprint hashes the workload name, op count and every cycle's
// input hash: two runs may be compared only when they timed the same
// ops.
func fingerprint(name string, ops int, cycleInputs []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %d\n", name, ops)
	for _, in := range cycleInputs {
		fmt.Fprintln(h, in)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkGolden compares the run's digest with the committed one for the
// default seed over the cycles both hold, and names the first
// difference.
func (r *record) checkGolden(stderr io.Writer) error {
	text, err := goldenFS.ReadFile("golden/" + r.Workload + ".txt")
	if errors.Is(err, fs.ErrNotExist) {
		r.Golden = "missing"
		return nil
	} else if err != nil {
		return err
	}
	want, err := parseDigest(string(text))
	if err != nil {
		return err
	}
	r.GoldenCycles = min(len(want.cycles), len(r.digest.cycles))
	if d := r.digest.diff(want); d != "" {
		r.Golden = "mismatch"
		fmt.Fprintf(stderr, "perfbench: %s digest differs from golden/%s.txt at %s\n", r.Workload, r.Workload, d)
		return nil
	}
	r.Golden = "match"
	return nil
}

// write stores the record (and the spans of a traced run) in dir.
func (r *record) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, boolInt(r.tr != nil))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if r.tr != nil {
		return r.tr.writeSpans(filepath.Join(dir, base+".spans.jsonl"))
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
