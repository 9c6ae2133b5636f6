package obs

import (
	"bytes"
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
	end := m.OpSpan(op, TagLookup)
	m.BatchReadOp(op, []pdm.Addr{{Disk: 0, Block: 0}, {Disk: 1, Block: 2}})
	m.BatchReadShared([]*pdm.Op{op, m.NewOp(4, 1)}, []pdm.Addr{{Disk: 2, Block: 1}})
	end()
	inner := m.Span(TagInsert)
	m.BatchWrite([]pdm.BlockWrite{{Addr: pdm.Addr{Disk: 3, Block: 1}, Data: []pdm.Word{7}}})
	m.ChargeSteps(nil, 2)
	inner()
	w.Event(pdm.Event{Kind: pdm.EventHealth, Tag: TagHealthFailed, Addrs: []pdm.Addr{{Disk: 1}}, From: "healthy", To: "failed", Step: 4})
	w.Event(pdm.Event{Kind: pdm.EventAlert, Tag: TagAlertFiring, Rule: "balance", From: "pending", To: "firing", Value: 12})
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
