package attrib_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"emeralds/internal/attrib"
	"emeralds/internal/trace"
	"emeralds/internal/vtime"
)

// TestReplayStreamMatchesAnalyze: a Replay fed each event as the kernel
// emits it, with no ring retained, must equal Analyze over the ring of
// an identical run, on both property-test workload families.
func TestReplayStreamMatchesAnalyze(t *testing.T) {
	for seed := int64(1); seed <= randomWorkloads; seed++ {
		ringed := randomWorkload(seed)
		want := analyzeSystem(t, ringed, 60*vtime.Millisecond)

		streamed := randomWorkload(seed)
		rp := attrib.NewReplay()
		streamed.Trace().Stream(rp.Step)
		if err := streamed.Boot(); err != nil {
			t.Fatal(err)
		}
		streamed.Run(60 * vtime.Millisecond)
		got, err := rp.Finish()
		if err != nil {
			t.Fatalf("seed %d: streamed replay: %v", seed, err)
		}
		if len(streamed.Trace().Events()) != 0 {
			t.Fatalf("seed %d: streaming log retained events", seed)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: streamed replay differs from Analyze", seed)
		}
	}
	for seed := int64(1); seed <= multicoreWorkloads; seed++ {
		ringed, _ := runMulticore(t, seed, nil)
		want, err := attrib.Analyze(ringed.Trace().Events(), ringed.Trace().Dropped())
		if err != nil {
			t.Fatal(err)
		}
		rp := attrib.NewReplay()
		runMulticore(t, seed, rp.Step)
		got, err := rp.Finish()
		if err != nil {
			t.Fatalf("multicore seed %d: streamed replay: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("multicore seed %d: streamed replay differs from Analyze", seed)
		}
	}
}

// TestDuplicateTaskRefused: two task-info events for one name would
// merge two tasks into one, so the replay refuses the trace.
func TestDuplicateTaskRefused(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.TaskInfo, Task: "x", Detail: "prio=1 period=1000 deadline=1000"},
		{Kind: trace.TaskInfo, Task: "y", Detail: "prio=2 period=1000 deadline=1000"},
		{Kind: trace.TaskInfo, Task: "x", Detail: "prio=3 period=2000 deadline=2000"},
		{At: 1, Kind: trace.Release, Task: "x"},
	}
	an, err := attrib.Analyze(events, 0)
	if !errors.Is(err, attrib.ErrDuplicateTask) || an != nil {
		t.Fatalf("Analyze(duplicate x) = %v, %v; want ErrDuplicateTask", an, err)
	}
	if want := `"x" (event 2)`; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %s", err, want)
	}
	if _, err := attrib.Analyze(events[:2], 0); err != nil {
		t.Errorf("distinct names refused: %v", err)
	}
}

// TestReplayRefusesBackwardsTime: Step stops at the first event that
// goes back in time and Finish reports it with its index.
func TestReplayRefusesBackwardsTime(t *testing.T) {
	rp := attrib.NewReplay()
	rp.Step(trace.Event{At: 5, Kind: trace.Release, Task: "a"})
	rp.Step(trace.Event{At: 4, Kind: trace.Dispatch, Task: "a"})
	rp.Step(trace.Event{At: 6, Kind: trace.Complete, Task: "a"})
	if an, err := rp.Finish(); err == nil || an != nil || !strings.Contains(err.Error(), "event 1 ") {
		t.Errorf("Finish = %v, %v; want a backwards-time error at event 1", an, err)
	}
}
