package syncheck

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"emeralds/internal/trace"
)

// FuzzSyncheckParse throws arbitrary bytes at the trace-JSON parser and
// checker: it must never panic, and on parseable input the verdict must
// be deterministic (two runs agree). Seeds live under
// testdata/fuzz/FuzzSyncheckParse; ci.sh runs a short -fuzztime smoke.
func FuzzSyncheckParse(f *testing.F) {
	f.Add([]byte(`{"schema":"emeralds.trace/v1","total":2,"dropped":0,"events":[` +
		`{"at":0,"kind":"msg-send","task":"a","detail":"q0"},` +
		`{"at":1,"kind":"msg-recv","task":"b","detail":"q0"}]}`))
	f.Add([]byte(`{"schema":"emeralds.trace/v1","total":0,"dropped":0,"events":[]}`))
	f.Add([]byte(`{"schema":"emeralds.trace/v1","total":4,"dropped":0,"events":[` +
		`{"at":0,"kind":"vlink-send","task":"t1","detail":"vl0"},` +
		`{"at":1,"kind":"vlink-send","task":"t2","detail":"vl0"},` +
		`{"at":2,"kind":"vlink-recv","task":"t1","detail":"vl0"},` +
		`{"at":3,"kind":"vlink-recv","task":"t2","detail":"vl0"}]}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep1, err1 := CheckRaw(data)
		rep2, err2 := CheckRaw(data)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("nondeterministic error: %v vs %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if !reflect.DeepEqual(rep1, rep2) {
			t.Fatalf("nondeterministic verdict:\n%+v\n%+v", rep1, rep2)
		}
		rep1.OK()
		_ = rep1.String()
	})
}

// TestCheckerMatchesCheckOnCorpus replays every committed
// FuzzSyncheckParse seed through a streaming trace log into a Checker
// and requires the same report as Check over the parsed event slice.
func TestCheckerMatchesCheckOnCorpus(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzSyncheckParse/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	parsed := 0
	for _, f := range files {
		data := readCorpusEntry(t, f)
		events, _, err := trace.ParseJSON(data)
		if err != nil {
			continue // unparseable seeds exercise only the parser
		}
		parsed++
		ck := NewChecker()
		log := trace.New(1)
		log.Stream(ck.Add)
		for _, e := range events {
			log.AddDurCPU(e.At, e.Kind, e.Task, e.Detail, e.Dur, e.CPU)
		}
		if got, want := ck.Finish(), Check(events); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: streamed %+v, Check %+v", f, got, want)
		}
	}
	if parsed < 3 {
		t.Errorf("only %d corpus entries parsed", parsed)
	}
}

// readCorpusEntry decodes a one-value "go test fuzz v1" corpus file.
func readCorpusEntry(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, body, _ := strings.Cut(string(raw), "\n")
	body = strings.TrimSpace(body)
	body = strings.TrimSuffix(strings.TrimPrefix(body, "[]byte("), ")")
	s, err := strconv.Unquote(body)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
