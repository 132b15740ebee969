package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"emeralds/internal/vtime"
)

// Raw trace serialization: a lossless, versioned JSON encoding of the
// event log, precise to the nanosecond (unlike the Perfetto export,
// whose timestamps are float microseconds). The attribution engine
// (package attrib, cmd/emreport) replays this format; the Perfetto
// export embeds it alongside the traceEvents array so one -trace-out
// file serves both ui.perfetto.dev and emreport.

// RawSchema versions the raw trace JSON layout.
const RawSchema = "emeralds.trace/v1"

// RawEvent is the JSON form of one Event. Times and durations are
// integer nanoseconds — exact, unlike the artifact µs floats.
type RawEvent struct {
	At     int64  `json:"at"`
	Kind   string `json:"kind"`
	Task   string `json:"task"`
	Detail string `json:"detail,omitempty"`
	Dur    int64  `json:"dur,omitempty"`
	CPU    int    `json:"cpu,omitempty"`
}

// RawLog is the serialized log: the retained events plus the lifetime
// and dropped counts, so a consumer can tell a complete trace from a
// truncated one.
type RawLog struct {
	Schema  string     `json:"schema"`
	Total   uint64     `json:"total"`
	Dropped uint64     `json:"dropped"`
	Events  []RawEvent `json:"events"`
}

var errNilLog = errors.New("trace: nil log")

// ExportJSON writes the retained events as versioned raw-trace JSON,
// read from the ring in place.
func (l *Log) ExportJSON(w io.Writer) error {
	if l == nil {
		return errNilLog
	}
	j := newJSONWriter(w)
	l.writeRaw(&j)
	j.buf = append(j.buf, '\n')
	return j.close()
}

// writeRaw appends the log as a RawLog object, read from the ring in
// place: the bytes encoding/json writes for the RawLog and RawEvent
// structs, field order and omitempty included.
func (l *Log) writeRaw(j *jsonWriter) {
	b := appendString(append(j.buf, `{"schema":`...), RawSchema)
	b = strconv.AppendUint(append(b, `,"total":`...), l.Total(), 10)
	b = strconv.AppendUint(append(b, `,"dropped":`...), l.Dropped(), 10)
	j.buf = append(b, `,"events":[`...)
	older, newer := l.span()
	sep := false
	for _, part := range [2][]Event{older, newer} {
		for i := range part {
			if sep {
				j.buf = append(j.buf, ',')
			}
			sep = true
			j.buf = appendRawEvent(j.buf, &part[i])
			j.maybeFlush()
		}
	}
	j.buf = append(j.buf, "]}"...)
}

// appendRawEvent appends e as a RawEvent object.
func appendRawEvent(b []byte, e *Event) []byte {
	b = strconv.AppendInt(append(b, `{"at":`...), int64(e.At), 10)
	b = appendString(append(b, `,"kind":`...), e.Kind.String())
	b = appendString(append(b, `,"task":`...), e.Task)
	if e.Detail != "" {
		b = appendString(append(b, `,"detail":`...), e.Detail)
	}
	if e.Dur != 0 {
		b = strconv.AppendInt(append(b, `,"dur":`...), int64(e.Dur), 10)
	}
	if e.CPU != 0 {
		b = strconv.AppendInt(append(b, `,"cpu":`...), int64(e.CPU), 10)
	}
	return append(b, '}')
}

// flushAt bounds a jsonWriter's buffer: past it, the buffer goes to
// the writer and is reused.
const flushAt = 32 << 10

// bufPool hands each export the buffer an earlier one finished with.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// jsonWriter appends a JSON document into one bounded buffer, writing
// it out whenever it passes flushAt. The first write error sticks and
// later output is discarded.
type jsonWriter struct {
	w    io.Writer
	buf  []byte
	err  error
	home *[]byte // the pool slot buf came from
}

func newJSONWriter(w io.Writer) jsonWriter {
	home := bufPool.Get().(*[]byte)
	if *home == nil {
		*home = make([]byte, 0, flushAt+flushAt/4)
	}
	return jsonWriter{w: w, buf: (*home)[:0], home: home}
}

func (j *jsonWriter) maybeFlush() {
	if len(j.buf) >= flushAt {
		j.flush()
	}
}

func (j *jsonWriter) flush() {
	if j.err == nil && len(j.buf) > 0 {
		_, j.err = j.w.Write(j.buf)
	}
	j.buf = j.buf[:0]
}

// close writes what is buffered, returns the buffer to the pool unless
// an outsized value grew it, and reports the first write error.
func (j *jsonWriter) close() error {
	j.flush()
	if cap(j.buf) <= 2*flushAt {
		*j.home = j.buf
		bufPool.Put(j.home)
	}
	j.buf, j.home = nil, nil
	return j.err
}

// appendFloat appends f as encoding/json formats a float64: like
// strconv 'f' with the shortest precision, switching to 'e' outside
// [1e-6, 1e21) with a one-digit negative exponent unpadded (e-7, not
// e-07). f must be finite.
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string escaped as encoding/json
// escapes it by default (HTML-safe): '"' and '\\' backslashed; \b \f
// \n \r \t by name; other control bytes and '<', '>', '&' as \u00XX;
// U+2028 and U+2029 as \u2028/\u2029; each byte of invalid UTF-8 as
// \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// kindByName inverts kindNames; built once, read-only afterwards.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, NumKinds)
	for k := Kind(0); k < NumKinds; k++ {
		m[k.String()] = k
	}
	return m
}()

// Decode converts a RawLog back to events, rejecting unknown schemas
// and kinds. The dropped count travels with the result so consumers
// can refuse (or warn about) truncated traces.
func (r RawLog) Decode() (events []Event, dropped uint64, err error) {
	if r.Schema != RawSchema {
		return nil, 0, fmt.Errorf("trace: schema %q, want %q", r.Schema, RawSchema)
	}
	events = make([]Event, len(r.Events))
	for i, re := range r.Events {
		k, ok := kindByName[re.Kind]
		if !ok {
			return nil, 0, fmt.Errorf("trace: event %d has unknown kind %q", i, re.Kind)
		}
		events[i] = Event{
			At: vtime.Time(re.At), Kind: k, Task: re.Task,
			Detail: re.Detail, Dur: vtime.Duration(re.Dur), CPU: re.CPU,
		}
	}
	return events, r.Dropped, nil
}

// ParseJSON reads a raw-trace JSON document — either a bare RawLog or
// a Perfetto export with the RawLog embedded under "emeraldsTrace"
// (the form emsim -trace-out writes).
func ParseJSON(data []byte) (events []Event, dropped uint64, err error) {
	var probe struct {
		Schema   string          `json:"schema"`
		Embedded json.RawMessage `json:"emeraldsTrace"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, 0, fmt.Errorf("trace: not valid JSON: %w", err)
	}
	if probe.Schema == "" && len(probe.Embedded) > 0 {
		data = probe.Embedded
	}
	var raw RawLog
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, 0, fmt.Errorf("trace: parse raw log: %w", err)
	}
	if raw.Schema == "" {
		return nil, 0, fmt.Errorf("trace: no raw event log found (need %q, or a Perfetto export with an embedded emeraldsTrace block)", RawSchema)
	}
	return raw.Decode()
}
