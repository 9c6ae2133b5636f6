package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"pdmdict/internal/pdm"
)

// FuzzReadEvents feeds arbitrary bytes to the trace parser. It must
// never panic, and any trace it accepts must survive a round trip
// through JSONLWriter: writing the parsed events and reading them back
// yields the same events.
//
//	go test -run '^$' -fuzz FuzzReadEvents -fuzztime 10s ./internal/obs/
func FuzzReadEvents(f *testing.F) {
	var trace bytes.Buffer
	w := NewJSONLWriter(&trace)
	m := pdm.NewMachine(pdm.Config{D: 4, B: 2})
	m.SetHook(w)
	op := m.NewOp(3, 2)
	end := m.OpSpan(op, pdm.TagLookup)
	m.BatchReadOp(op, []pdm.Addr{{Disk: 0, Block: 0}, {Disk: 1, Block: 2}})
	m.BatchReadShared([]*pdm.Op{op, m.NewOp(4, 1)}, []pdm.Addr{{Disk: 2, Block: 1}})
	end.End()
	inner := m.Span(pdm.TagInsert)
	probe := m.Span(pdm.TagProbe)
	m.BatchWrite([]pdm.BlockWrite{{Addr: pdm.Addr{Disk: 3, Block: 1}, Data: []pdm.Word{7}}})
	probe.End()
	m.ChargeSteps(nil, 2)
	inner.End()
	w.Event(pdm.Event{Kind: pdm.EventHealth, Tag: "health.failed", Addrs: []pdm.Addr{{Disk: 1}}, From: "healthy", To: "failed", Step: 4})
	w.Event(pdm.Event{Kind: pdm.EventAlert, Tag: "alert.firing", Rule: "balance", From: "pending", To: "firing", Value: 12})
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(trace.Bytes())
	f.Add([]byte("{\"k\":\"trace\",\"v\":3}\n{\"k\":\"read\",\"steps\":1,\"addrs\":[[1,0]]}\n"))
	f.Add([]byte("{\"k\":\"read\",\"steps\":1,\"depth\":1,\"addrs\":[[1,0]]}\n"))
	f.Add([]byte("{\"k\":\"trace\",\"v\":5}\n{\"k\":\"read\",\"ops\":[],\"addrs\":[]}\n"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := NewJSONLWriter(&buf)
		for _, e := range events {
			w.Event(e)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("re-encoding an accepted trace: %v", err)
		}
		again, err := ReadEvents(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(events, again) {
			t.Fatalf("round trip changed the events:\nfirst  %+v\nsecond %+v", events, again)
		}
	})
}

// toJSONL maps an event to its trace line the reflective way: the
// reference FuzzJSONLWriter holds the writer's encoder to.
func toJSONL(e pdm.Event) jsonlEvent {
	line := jsonlEvent{
		Kind:   e.Kind.String(),
		Tag:    e.Tag,
		Steps:  e.Steps,
		Depth:  e.Depth,
		Span:   e.Span,
		Parent: e.Parent,
		Step:   e.Step,
		Op:     e.Op,
		Client: e.Client,
		Keys:   e.Keys,
		Ops:    e.Ops,
		Rule:   e.Rule,
		From:   e.From,
		To:     e.To,
		Value:  e.Value,
	}
	if len(e.Addrs) > 0 {
		line.Addrs = make([][2]int, len(e.Addrs))
		for i, a := range e.Addrs {
			line.Addrs[i] = [2]int{a.Disk, a.Block}
		}
	}
	return line
}

// FuzzJSONLWriter checks the writer's reflection-free encoder against
// encoding/json: every event must encode to exactly the bytes
// json.Encoder writes for the same jsonlEvent. ops holds 8 bytes per op
// ID and addrs 16 per address; empty turns a nil Ops or Addrs into an
// empty, non-nil slice.
//
//	go test -run '^$' -fuzz FuzzJSONLWriter -fuzztime 10s ./internal/obs/
func FuzzJSONLWriter(f *testing.F) {
	ids := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 7), math.MaxUint64)
	addrs := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 3), 1<<63)
	for kind := range uint8(pdm.EventAlert) + 2 {
		f.Add(kind, pdm.TagLookup.String(), "", "", "", 1, 1, uint64(3), uint64(0), int64(9), uint64(4), 2, 1, int64(0), ids, addrs, false)
	}
	f.Add(uint8(pdm.EventRead), "", "", "", "", 0, 0, uint64(0), uint64(0), int64(0), uint64(0), 0, 0, int64(0), []byte{}, []byte{}, true)
	f.Add(uint8(pdm.EventRead), "", "", "", "", 0, 0, uint64(0), uint64(0), int64(0), uint64(0), 0, 0, int64(0), []byte(nil), []byte(nil), false)
	f.Add(uint8(pdm.EventAlert), "alert.firing", "slo_burn[client=1]", "pending", "firing", 0, 0, uint64(0), uint64(0), int64(math.MinInt64), uint64(0), -3, -1, int64(-1500000), ids, addrs, false)
	f.Add(uint8(pdm.EventHealth), `q"b\\s<a>&`, "\x00\x1f\n\t\r", "\xff\xfe", "\u2028\u2029", -1, -2, uint64(math.MaxUint64), uint64(1), int64(-9), uint64(5), 7, 8, int64(math.MaxInt64), ids, addrs, true)
	f.Add(uint8(pdm.EventWrite), "é€😀", "\x7f", "a\xc3", "\u00e9", 3, 2, uint64(1), uint64(2), int64(3), uint64(4), 5, 6, int64(7), ids[:8], addrs, false)

	f.Fuzz(func(t *testing.T, kind uint8, tag, rule, from, to string, steps, depth int, span, parent uint64,
		step int64, op uint64, client, keys int, value int64, ops, addrs []byte, empty bool) {
		e := pdm.Event{
			Kind: pdm.EventKind(kind), Tag: tag, Rule: rule, From: from, To: to,
			Steps: steps, Depth: depth, Span: span, Parent: parent, Step: step,
			Op: op, Client: client, Keys: keys, Value: value,
		}
		for ; len(ops) >= 8; ops = ops[8:] {
			e.Ops = append(e.Ops, binary.LittleEndian.Uint64(ops))
		}
		for ; len(addrs) >= 16; addrs = addrs[16:] {
			e.Addrs = append(e.Addrs, pdm.Addr{
				Disk:  int(binary.LittleEndian.Uint64(addrs)),
				Block: int(binary.LittleEndian.Uint64(addrs[8:])),
			})
		}
		if empty && e.Ops == nil {
			e.Ops = []uint64{}
		}
		if empty && e.Addrs == nil {
			e.Addrs = []pdm.Addr{}
		}
		var got, want bytes.Buffer
		w := NewJSONLWriter(&got)
		w.Event(e)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		enc := json.NewEncoder(&want)
		if err := enc.Encode(jsonlEvent{Kind: "trace", Version: TraceVersion}); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(toJSONL(e)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("encoder and encoding/json disagree on %+v:\ngot  %s\nwant %s", e, got.Bytes(), want.Bytes())
		}
	})
}
