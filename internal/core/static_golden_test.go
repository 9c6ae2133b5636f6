package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"pdmdict/internal/obs"
	"pdmdict/internal/pdm"
)

// Static's read events and snapshot bytes are pinned by SHA-256 digests,
// re-recorded when fields were packed at their bit width: the JSONL
// trace of looking up every stored key and as many absent ones, and the
// Snapshot stream (re-recorded again when construction began releasing
// its scratch stripes, which the snapshot now holds as absent). A lookup that reads other addresses, in another
// order or batching, or under other spans moves the trace digest, and
// so does a construction costing other steps, since spans carry the
// step counter; a layout or construction change moves the snapshot
// digest.
func TestStaticGoldenDigests(t *testing.T) {
	want := map[string][2]string{
		"case-a": {
			"f86a60018c0cd0e3643991f780349df77a4f62f483a2f93898168e7e50be9edc",
			"fb8bce721f8714f5f77930535d186237fa8acd477b0446c3963c2e5f8e28c1e3",
		},
		"case-b": {
			"4e6795c0dac5a06ebe0651b5f721c0b0baab19d1879b8bb3de7bebd16cbb052e",
			"15a6d50858dd2612769630532e3e4e112df05c320e07f756b99d30739b68dc0f",
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
