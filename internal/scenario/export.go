package scenario

import (
	"fmt"
	"io"
)

// ExportTrace replays the scenario — same build, boot, and aperiodic
// arrivals as Run, trace ring sized by TraceCapacity — and writes the
// schedule as Chrome/Perfetto trace-event JSON. This is the emfuzz
// -trace-out hook: a violation's repro can be inspected visually in
// ui.perfetto.dev without rerunning the oracles. A scenario whose
// simulation panics (an OraclePanic repro) surfaces the panic as an
// error instead of crashing the exporter.
func ExportTrace(s *Scenario, w io.Writer) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("scenario: replay panicked: %v", v)
		}
	}()
	sys, aper, err := Build(s)
	if err != nil {
		return err
	}
	if err := sys.Boot(); err != nil {
		return err
	}
	scheduleArrivals(s, sys, aper)
	sys.Run(s.Horizon)
	if d := sys.Trace().Dropped(); d > 0 {
		return fmt.Errorf("scenario: trace ring dropped %d events", d)
	}
	return sys.Trace().ExportPerfetto(w)
}
