package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"pdmdict/internal/pdm"
)

// TraceVersion is the trace format written by JSONLWriter. Version 5
// added annotation events: "health" lines record per-disk health-state
// transitions and "alert" lines record alert-instance transitions
// synthesized by Monitor, both carrying from/to state names (health
// lines a disk address, alert lines a rule name and sampled value).
// Version 4 added operation tokens: span and batch lines carry the
// owning op's ID and client, root span lines its key count, and merged
// batches their attribution list. Version 3 added a header line and
// first-class span events. Versions 3 and 4 still load; fields their
// version lacks simply read back as zero.
const TraceVersion = 5

// minTraceVersion is the oldest format ReadEvents accepts: the first
// with a header line.
const minTraceVersion = 3

// jsonlEvent is the on-disk shape of one trace line. Addresses are
// [disk, block] pairs to keep traces compact. Span lines reuse the
// struct with k = "span_begin" / "span_end" and carry span/parent ids
// plus the machine's parallel-I/O step counter; batch lines carry the
// id of their innermost open span. Wall-clock durations are excluded
// by construction — pdm.Event.WallNanos has no field here — so traces
// stay byte-identical across runs of the same seed and workload. The
// header line reuses the struct too, with k = "trace" and v set.
type jsonlEvent struct {
	Kind    string   `json:"k"`
	Version int      `json:"v,omitempty"`
	Tag     string   `json:"tag,omitempty"`
	Steps   int      `json:"steps,omitempty"`
	Depth   int      `json:"depth,omitempty"`
	Span    uint64   `json:"span,omitempty"`
	Parent  uint64   `json:"parent,omitempty"`
	Step    int64    `json:"step,omitempty"`
	Op      uint64   `json:"op,omitempty"`
	Client  int      `json:"client,omitempty"`
	Keys    int      `json:"keys,omitempty"`
	Ops     []uint64 `json:"ops,omitempty"`
	Addrs   [][2]int `json:"addrs,omitempty"`
	Rule    string   `json:"rule,omitempty"`
	From    string   `json:"from,omitempty"`
	To      string   `json:"to,omitempty"`
	Value   int64    `json:"value,omitempty"`
}

// JSONLWriter streams events to w, one JSON object per line, after a
// version header line. It buffers internally; call Close (or Flush)
// before reading the output. Safe for concurrent use.
type JSONLWriter struct {
	mu   sync.Mutex
	bw   *bufio.Writer
	line []byte // encoding scratch, reused line to line
	err  error
}

// NewJSONLWriter wraps w in a trace writer and writes the trace
// header. Header write errors are sticky and reported by Close, like
// event errors.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	bw := bufio.NewWriter(w)
	return &JSONLWriter{bw: bw, err: json.NewEncoder(bw).Encode(jsonlEvent{Kind: "trace", Version: TraceVersion})}
}

// Event implements pdm.Hook. Encoding errors are sticky and reported
// by Close.
func (w *JSONLWriter) Event(e pdm.Event) {
	w.mu.Lock()
	if w.err == nil {
		w.line = appendEvent(w.line[:0], &e)
		_, w.err = w.bw.Write(w.line)
	}
	w.mu.Unlock()
}

// appendEvent appends e's trace line to b without reflection: byte for
// byte what encoding/json's Encoder writes for the jsonlEvent e maps
// to, in jsonlEvent's field order with its omitempty rules.
func appendEvent(b []byte, e *pdm.Event) []byte {
	b = appendString(append(b, `{"k":`...), e.Kind.String())
	b = appendStringField(b, `,"tag":`, e.Tag)
	b = appendIntField(b, `,"steps":`, int64(e.Steps))
	b = appendIntField(b, `,"depth":`, int64(e.Depth))
	b = appendUintField(b, `,"span":`, e.Span)
	b = appendUintField(b, `,"parent":`, e.Parent)
	b = appendIntField(b, `,"step":`, e.Step)
	b = appendUintField(b, `,"op":`, e.Op)
	b = appendIntField(b, `,"client":`, int64(e.Client))
	b = appendIntField(b, `,"keys":`, int64(e.Keys))
	if len(e.Ops) > 0 {
		b = append(b, `,"ops":[`...)
		for i, id := range e.Ops {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, id, 10)
		}
		b = append(b, ']')
	}
	if len(e.Addrs) > 0 {
		b = append(b, `,"addrs":[`...)
		for i, a := range e.Addrs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, '['), int64(a.Disk), 10)
			b = strconv.AppendInt(append(b, ','), int64(a.Block), 10)
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	b = appendStringField(b, `,"rule":`, e.Rule)
	b = appendStringField(b, `,"from":`, e.From)
	b = appendStringField(b, `,"to":`, e.To)
	b = appendIntField(b, `,"value":`, e.Value)
	return append(b, "}\n"...)
}

// appendIntField, appendUintField and appendStringField append key and
// v, or nothing for a zero v: the omitempty rule.
func appendIntField(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), v, 10)
}

func appendUintField(b []byte, key string, v uint64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendUint(append(b, key...), v, 10)
}

func appendStringField(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(append(b, key...), s)
}

// appendString appends s as a JSON string. A string holding any byte
// encoding/json escapes — quote, backslash, HTML-significant <, > and &,
// control bytes, and every non-ASCII byte (for invalid UTF-8 and
// U+2028/U+2029) — is handed to json.Marshal, so the output matches it
// exactly; trace strings are registered ASCII tags and state names.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// Flush forces buffered lines out to the underlying writer.
func (w *JSONLWriter) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// Close flushes and returns the first error seen, if any. It does not
// close the underlying writer.
func (w *JSONLWriter) Close() error { return w.Flush() }

// ParseError reports a malformed trace line with its 1-based line
// number, so tools can point at the exact spot in the file.
type ParseError struct {
	Line int
	Err  error
}

// Error formats the failure with its line number.
func (e *ParseError) Error() string { return fmt.Sprintf("line %d: %v", e.Line, e.Err) }

// Unwrap exposes the underlying cause.
func (e *ParseError) Unwrap() error { return e.Err }

// ReadEvents parses a JSONL trace back into events. The first line
// must be the version header, of a version from 3 to TraceVersion;
// unknown event kinds, and span events whose path has a component that
// is not a declared pdm.Tag, are rejected. Errors are *ParseError
// carrying the offending line number.
func ReadEvents(r io.Reader) ([]pdm.Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	var out []pdm.Event
	lineno := 0
	header := false
	for sc.Scan() {
		lineno++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var line jsonlEvent
		dec := json.NewDecoder(bytes.NewReader(raw))
		if err := dec.Decode(&line); err != nil {
			return out, &ParseError{Line: lineno, Err: err}
		}
		if dec.More() {
			return out, &ParseError{Line: lineno, Err: fmt.Errorf("trailing data after JSON object")}
		}
		e := pdm.Event{
			Tag:    line.Tag,
			Steps:  line.Steps,
			Depth:  line.Depth,
			Span:   line.Span,
			Parent: line.Parent,
			Step:   line.Step,
			Op:     line.Op,
			Client: line.Client,
			Keys:   line.Keys,
			Rule:   line.Rule,
			From:   line.From,
			To:     line.To,
			Value:  line.Value,
		}
		if line.Kind == "trace" {
			if lineno != 1 {
				return out, &ParseError{Line: lineno, Err: fmt.Errorf("trace header not on first line")}
			}
			if line.Version < minTraceVersion || line.Version > TraceVersion {
				return out, &ParseError{Line: lineno, Err: fmt.Errorf("trace version %d not supported (want %d to %d)", line.Version, minTraceVersion, TraceVersion)}
			}
			header = true
			continue
		}
		if !header {
			return out, &ParseError{Line: lineno, Err: fmt.Errorf("trace header missing from first line")}
		}
		switch line.Kind {
		case "read":
			e.Kind = pdm.EventRead
		case "write":
			e.Kind = pdm.EventWrite
		case "span_begin":
			e.Kind = pdm.EventSpanBegin
		case "span_end":
			e.Kind = pdm.EventSpanEnd
		case "health":
			e.Kind = pdm.EventHealth
		case "alert":
			e.Kind = pdm.EventAlert
		default:
			return out, &ParseError{Line: lineno, Err: fmt.Errorf("unknown event kind %q", line.Kind)}
		}
		if e.Kind.IsSpan() && !declaredPath(line.Tag) {
			return out, &ParseError{Line: lineno, Err: fmt.Errorf("span tag %q is not a path of declared tags", line.Tag)}
		}
		if len(line.Ops) > 0 {
			e.Ops = line.Ops
		}
		if len(line.Addrs) > 0 {
			e.Addrs = make([]pdm.Addr, len(line.Addrs))
			for i, a := range line.Addrs {
				e.Addrs[i] = pdm.Addr{Disk: a[0], Block: a[1]}
			}
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return out, &ParseError{Line: lineno + 1, Err: err}
	}
	if !header {
		return out, &ParseError{Line: 1, Err: fmt.Errorf("trace header missing from first line")}
	}
	return out, nil
}

// declaredPath reports whether every component of the dot-joined span
// path is a declared pdm.Tag.
func declaredPath(path string) bool {
	for {
		head, rest, more := strings.Cut(path, ".")
		if _, ok := pdm.ParseTag(head); !ok {
			return false
		}
		if !more {
			return true
		}
		path = rest
	}
}
