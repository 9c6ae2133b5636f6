package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"pdmdict/internal/obs"
	"pdmdict/internal/pdm"
)

// Static's read events and snapshot bytes are pinned by SHA-256 digests
// recorded while StaticDict still had a lookup body of its own: the
// JSONL trace of looking up every stored key and as many absent ones,
// and the Snapshot stream. A lookup that reads other addresses, in
// another order or batching, or under other spans moves the trace
// digest; a layout or construction change moves the snapshot digest.
func TestStaticGoldenDigests(t *testing.T) {
	want := map[string][2]string{
		"case-a": {
			"51dc2e74d17525c625073dc6f89073699fc7c2fa4d2b38567f55b3757a93c24c",
			"081d8c720e2609ab160ca53307495decbb8dcc6e9160615d16b857f0f4a64a74",
		},
		"case-b": {
			"3ef6538abf1a2447991652a8278c8b426e3313016e99fce570099b058b851ada",
			"af760b466e9c8d1c74551c6ca113093d3a0b73db65aee7a594d35ef55945582a",
		},
	}
	for _, cs := range []StaticCase{CaseA, CaseB} {
		const n = 300
		recs := makeRecords(n, 3, 21)
		sd, m := buildStatic(t, 12, 64, StaticConfig{SatWords: 3, Case: cs, Seed: 22}, recs)
		stored := make([]pdm.Word, n)
		for i, r := range recs {
			stored[i] = r.Key
		}
		var trace bytes.Buffer
		w := obs.NewJSONLWriter(&trace)
		m.SetHook(w)
		hits := 0
		for _, x := range withAbsent(stored, n) {
			if _, ok := sd.Lookup(x); ok {
				hits++
			}
		}
		m.SetHook(nil)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if hits != n {
			t.Fatalf("%v: %d hits, want %d", cs, hits, n)
		}
		var snap bytes.Buffer
		if err := sd.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		got := [2]string{
			fmt.Sprintf("%x", sha256.Sum256(trace.Bytes())),
			fmt.Sprintf("%x", sha256.Sum256(snap.Bytes())),
		}
		if got != want[cs.String()] {
			t.Errorf("%v: trace, snapshot digests\n  %s\n  %s\nwant\n  %s\n  %s", cs, got[0], got[1], want[cs.String()][0], want[cs.String()][1])
		}
	}
}
