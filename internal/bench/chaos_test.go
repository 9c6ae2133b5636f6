package bench

import (
	"bytes"
	"reflect"
	"testing"

	"pdmdict/internal/obs"
)

// The chaos soak is a function of its config: two runs of one seed give
// equal results, byte-identical JSON reports and byte-identical event
// traces.
func TestRunChaosReproducible(t *testing.T) {
	run := func() (ChaosResult, []byte, []byte) {
		var trace bytes.Buffer
		w := obs.NewJSONLWriter(&trace)
		SetHook(w)
		defer SetHook(nil)
		res, err := RunChaos(ChaosConfig{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		var report bytes.Buffer
		if err := WriteReport(&report, Report{Tables: []Table{*ChaosTable(res)}, Chaos: []ChaosResult{res}}, FormatJSON); err != nil {
			t.Fatal(err)
		}
		return res, report.Bytes(), trace.Bytes()
	}
	res1, report1, trace1 := run()
	res2, report2, trace2 := run()
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("results differ: %d vs %d lookups, %d vs %d parallel I/Os", res1.Lookups, res2.Lookups, res1.ParallelIOs, res2.ParallelIOs)
	}
	if !bytes.Equal(report1, report2) {
		t.Error("JSON reports differ")
	}
	if !bytes.Equal(trace1, trace2) {
		t.Error("traces differ")
	}
	if !bytes.Contains(trace1, []byte(`"tag":"repair"`)) {
		t.Error("trace lacks repair events")
	}
}

// Every soak gate holds across seeds, client counts and schedule lengths.
func TestRunChaosGates(t *testing.T) {
	shapes := []ChaosConfig{{}, {Clients: 1}, {Clients: 16}, {Rounds: 3}, {Rounds: 10}}
	for seed := uint64(1); seed <= 8; seed++ {
		for _, cfg := range shapes {
			cfg.Seed = seed
			if _, err := RunChaos(cfg); err != nil {
				t.Errorf("%+v: %v", cfg, err)
			}
		}
	}
}
