package trace_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"emeralds/internal/trace"
	"emeralds/internal/vtime"
)

func ms(n int) vtime.Time { return vtime.Time(n) * vtime.Time(vtime.Millisecond) }

// perfettoFixtures are the hand-written traces of the tests below;
// TestPerfettoMatchesReference also encodes each against the reference.
var perfettoFixtures = map[string][]trace.Event{
	"export": {
		{At: ms(0), Kind: trace.Release, Task: "a"},
		{At: ms(0), Kind: trace.Dispatch, Task: "a"},
		{At: ms(1), Kind: trace.SemBlockWait, Task: "a", Detail: "m"},
		{At: ms(1), Kind: trace.Dispatch, Task: "b"},
		{At: ms(2), Kind: trace.SemGrant, Task: "a", Detail: "m"},
		{At: ms(2), Kind: trace.Preempt, Task: "b"},
		{At: ms(2), Kind: trace.Dispatch, Task: "a"},
		{At: ms(3), Kind: trace.Miss, Task: "a"},
		{At: ms(3), Kind: trace.Idle, Task: "-"},
	},
	"deterministic": {
		{At: 0, Kind: trace.Dispatch, Task: "a"},
		{At: 100, Kind: trace.StateWrite, Task: "a", Detail: "s"},
		{At: 200, Kind: trace.Complete, Task: "a"},
	},
	"open-slice": {
		{At: 0, Kind: trace.Dispatch, Task: "a"},
		{At: 500, Kind: trace.Release, Task: "b"},
	},
	"multicore": {
		{At: ms(0), Kind: trace.Dispatch, Task: "a", CPU: 0},
		{At: ms(0), Kind: trace.Dispatch, Task: "b", CPU: 1},
		{At: ms(1), Kind: trace.Migrate, Task: "a", Detail: "to=cpu1", CPU: 0},
		{At: ms(1), Kind: trace.Idle, Task: "-", CPU: 0},
		{At: ms(2), Kind: trace.Complete, Task: "b", CPU: 1},
		{At: ms(2), Kind: trace.MigrateDone, Task: "a", Detail: "from=cpu0", CPU: 1},
		{At: ms(2), Kind: trace.Dispatch, Task: "a", CPU: 1},
		{At: ms(3), Kind: trace.Complete, Task: "a", CPU: 1},
	},
	"single-cpu": {
		{At: 0, Kind: trace.Dispatch, Task: "a"},
		{At: 100, Kind: trace.Complete, Task: "a"},
	},
}

func perfettoDoc(t *testing.T, events []trace.Event) (raw []byte, evs []map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.ExportPerfetto(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	return buf.Bytes(), doc.TraceEvents
}

func TestPerfettoExport(t *testing.T) {
	events := perfettoFixtures["export"]
	_, evs := perfettoDoc(t, events)

	byPh := map[string][]map[string]any{}
	for _, e := range evs {
		byPh[e["ph"].(string)] = append(byPh[e["ph"].(string)], e)
	}

	// Thread-name metadata for both tasks (plus the process name).
	names := map[string]bool{}
	for _, m := range byPh["M"] {
		names[m["args"].(map[string]any)["name"].(string)] = true
	}
	if !names["a"] || !names["b"] || !names["emeralds"] {
		t.Errorf("metadata names = %v", names)
	}

	// Three run slices: a [0,1), b [1,2), a [2,3).
	if len(byPh["X"]) != 3 {
		t.Fatalf("got %d X slices, want 3", len(byPh["X"]))
	}
	for i, want := range []struct{ ts, dur float64 }{{0, 1000}, {1000, 1000}, {2000, 1000}} {
		x := byPh["X"][i]
		if x["ts"].(float64) != want.ts || x["dur"].(float64) != want.dur {
			t.Errorf("slice %d: ts=%v dur=%v, want %v/%v", i, x["ts"], x["dur"], want.ts, want.dur)
		}
	}

	// The deadline miss is an instant on a's track.
	var sawMiss bool
	for _, in := range byPh["i"] {
		if in["name"] == "MISS" {
			sawMiss = true
		}
	}
	if !sawMiss {
		t.Error("no MISS instant event")
	}

	// The grant produces a matching s/f flow pair: started on b's track
	// (the releaser was running) and finished at a's next dispatch.
	if len(byPh["s"]) != 1 || len(byPh["f"]) != 1 {
		t.Fatalf("flows: %d starts, %d finishes, want 1/1", len(byPh["s"]), len(byPh["f"]))
	}
	s, f := byPh["s"][0], byPh["f"][0]
	if s["id"] != f["id"] {
		t.Errorf("flow ids differ: %v vs %v", s["id"], f["id"])
	}
	if s["tid"] == f["tid"] {
		t.Error("flow start and finish on the same track; want releaser → waiter")
	}
	if f["bp"] != "e" {
		t.Errorf(`finish bp = %v, want "e"`, f["bp"])
	}
	if f["ts"].(float64) != 2000 {
		t.Errorf("flow lands at ts %v, want 2000 (a's redispatch)", f["ts"])
	}
}

// TestPerfettoDeterministic: same events, byte-identical JSON.
func TestPerfettoDeterministic(t *testing.T) {
	events := perfettoFixtures["deterministic"]
	a, _ := perfettoDoc(t, events)
	b, _ := perfettoDoc(t, events)
	if !bytes.Equal(a, b) {
		t.Error("export is not byte-deterministic")
	}
}

// TestPerfettoOpenSliceClosed: a trace ending mid-quantum still closes
// the running slice (at the last event), so the JSON never contains a
// dangling "B" or an X with negative duration.
func TestPerfettoOpenSliceClosed(t *testing.T) {
	events := perfettoFixtures["open-slice"]
	_, evs := perfettoDoc(t, events)
	var slices int
	for _, e := range evs {
		if e["ph"] == "X" {
			slices++
			if e["dur"].(float64) < 0 {
				t.Errorf("negative duration: %v", e["dur"])
			}
		}
	}
	if slices != 1 {
		t.Errorf("got %d slices, want 1", slices)
	}
}

// TestPerfettoMulticore: events naming CPUs get one process per CPU,
// run slices land in their CPU's process, and a Migrate/MigrateDone
// pair produces a flow arrow across processes.
func TestPerfettoMulticore(t *testing.T) {
	events := perfettoFixtures["multicore"]
	_, evs := perfettoDoc(t, events)

	procs := map[float64]string{}
	var flowsS, flowsF []map[string]any
	var slices []map[string]any
	for _, e := range evs {
		switch e["ph"] {
		case "M":
			if e["name"] == "process_name" {
				procs[e["pid"].(float64)] = e["args"].(map[string]any)["name"].(string)
			}
		case "s":
			if e["name"] == "migrate" {
				flowsS = append(flowsS, e)
			}
		case "f":
			if e["name"] == "migrate" {
				flowsF = append(flowsF, e)
			}
		case "X":
			slices = append(slices, e)
		}
	}
	if procs[1] != "emeralds cpu0" || procs[2] != "emeralds cpu1" {
		t.Errorf("process names = %v, want per-CPU processes", procs)
	}
	if len(flowsS) != 1 || len(flowsF) != 1 {
		t.Fatalf("migrate flows: %d starts, %d finishes, want 1/1", len(flowsS), len(flowsF))
	}
	if flowsS[0]["id"] != flowsF[0]["id"] {
		t.Error("migrate flow ids do not match")
	}
	if flowsS[0]["pid"].(float64) != 1 || flowsF[0]["pid"].(float64) != 2 {
		t.Errorf("flow runs pid %v → %v, want 1 → 2", flowsS[0]["pid"], flowsF[0]["pid"])
	}
	// a's pre-migration slice is in cpu0's process, post-migration in
	// cpu1's; b's slice in cpu1's.
	var sawA0, sawA1 bool
	for _, x := range slices {
		if x["dur"].(float64) < 0 {
			t.Errorf("negative slice duration: %v", x["dur"])
		}
		switch x["pid"].(float64) {
		case 1:
			sawA0 = true
		case 2:
			sawA1 = true
		}
	}
	if !sawA0 || !sawA1 {
		t.Errorf("slices per process: cpu0=%v cpu1=%v, want both", sawA0, sawA1)
	}
}

// TestPerfettoSingleCPUUnchanged: a trace with every event on CPU 0
// keeps the classic single-process layout.
func TestPerfettoSingleCPUUnchanged(t *testing.T) {
	events := perfettoFixtures["single-cpu"]
	_, evs := perfettoDoc(t, events)
	for _, e := range evs {
		if e["ph"] == "M" && e["name"] == "process_name" {
			if got := e["args"].(map[string]any)["name"]; got != "emeralds" {
				t.Errorf("process name = %v, want classic \"emeralds\"", got)
			}
		}
		if pid, ok := e["pid"].(float64); ok && pid != 1 {
			t.Errorf("event in pid %v, want single process 1", pid)
		}
	}
}
