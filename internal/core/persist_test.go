package core

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"pdmdict/internal/pdm"
)

func TestBasicSnapshotRoundTrip(t *testing.T) {
	m := pdm.NewMachine(pdm.Config{D: 8, B: 32})
	bd, err := NewBasic(m, BasicConfig{Capacity: 200, SatWords: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		if err := bd.Insert(pdm.Word(i*13+1), []pdm.Word{pdm.Word(i), pdm.Word(i * 2)}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := bd.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	restored, _, err := LoadBasic(&buf)
	if err != nil {
		t.Fatalf("LoadBasic: %v", err)
	}
	if restored.Len() != bd.Len() {
		t.Fatalf("Len = %d, want %d", restored.Len(), bd.Len())
	}
	for i := 0; i < 150; i++ {
		sat, ok := restored.Lookup(pdm.Word(i*13 + 1))
		if !ok || sat[0] != pdm.Word(i) || sat[1] != pdm.Word(i*2) {
			t.Fatalf("key %d after restore: %v %v", i*13+1, sat, ok)
		}
	}
	// The restored structure remains fully usable.
	if err := restored.Insert(999999, []pdm.Word{9, 9}); err != nil {
		t.Fatalf("insert after restore: %v", err)
	}
	if !restored.Delete(1) {
		t.Fatal("delete after restore failed")
	}
}

func TestDynamicSnapshotRoundTrip(t *testing.T) {
	m := pdm.NewMachine(pdm.Config{D: 40, B: 64})
	dd, err := NewDynamic(m, DynamicConfig{Capacity: 500, SatWords: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := dd.Insert(pdm.Word(i*7+3), []pdm.Word{pdm.Word(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := dd.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, _, err := LoadDynamic(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 400 {
		t.Fatalf("Len = %d", restored.Len())
	}
	want := dd.LevelCounts()
	got := restored.LevelCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("level counts %v, want %v", got, want)
		}
	}
	for i := 0; i < 400; i++ {
		if sat, ok := restored.Lookup(pdm.Word(i*7 + 3)); !ok || sat[0] != pdm.Word(i) {
			t.Fatalf("key %d after restore: %v %v", i*7+3, sat, ok)
		}
	}
	if err := restored.Insert(424243, []pdm.Word{1}); err != nil {
		t.Fatalf("insert after restore: %v", err)
	}
}

func TestStaticSnapshotRoundTrip(t *testing.T) {
	for _, cs := range []StaticCase{CaseB, CaseA} {
		recs := makeRecords(200, 2, 3)
		disks := 12
		if cs == CaseA {
			disks = 24
		}
		m := pdm.NewMachine(pdm.Config{D: disks, B: 64})
		sd, err := BuildStatic(m, StaticConfig{SatWords: 2, Case: cs, Seed: 4}, recs)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sd.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		restored, rm, err := LoadStatic(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if restored.Len() != 200 {
			t.Fatalf("%v: Len = %d", cs, restored.Len())
		}
		// Lookups still one parallel I/O on the restored machine.
		before := rm.Stats()
		for _, r := range recs {
			sat, ok := restored.Lookup(r.Key)
			if !ok || sat[0] != r.Sat[0] {
				t.Fatalf("%v: key %d after restore: %v %v", cs, r.Key, sat, ok)
			}
		}
		perLookup := float64(rm.Stats().Sub(before).ParallelIOs) / float64(len(recs))
		if perLookup != 1 {
			t.Errorf("%v: restored lookups cost %.3f I/Os, want 1", cs, perLookup)
		}
	}
}

func TestDictSnapshotMidMigration(t *testing.T) {
	d, err := NewDict(DictConfig{InitialCapacity: 32, SatWords: 1, MigrateBatch: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]pdm.Word, 48)
	for i := range keys {
		keys[i] = pdm.Word(i*11 + 2)
		if err := d.Insert(keys[i], []pdm.Word{pdm.Word(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !d.Migrating() {
		t.Fatal("expected an in-progress migration")
	}
	var buf bytes.Buffer
	if err := d.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadDict(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Migrating() {
		t.Fatal("migration state lost")
	}
	if restored.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", restored.Len(), len(keys))
	}
	for i, k := range keys {
		sat, ok := restored.Lookup(k)
		if !ok || sat[0] != pdm.Word(i) {
			t.Fatalf("key %d after restore: %v %v", k, sat, ok)
		}
	}
	// Drive the restored migration to completion.
	for i := 0; i < 200 && restored.Migrating(); i++ {
		restored.Delete(1 << 40)
	}
	if restored.Migrating() {
		t.Error("restored migration never completed")
	}
	for i, k := range keys {
		if sat, ok := restored.Lookup(k); !ok || sat[0] != pdm.Word(i) {
			t.Fatalf("key %d lost after restored migration", k)
		}
	}
}

func TestSnapshotErrors(t *testing.T) {
	// Truncated stream.
	m := pdm.NewMachine(pdm.Config{D: 4, B: 16})
	bd, _ := NewBasic(m, BasicConfig{Capacity: 10, Seed: 6})
	var buf bytes.Buffer
	if err := bd.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, _, err := LoadBasic(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated snapshot loaded")
	}
	// Garbage stream.
	if _, _, err := LoadBasic(strings.NewReader("not a snapshot at all")); err == nil {
		t.Error("garbage snapshot loaded")
	}
	// Wrong type: a Basic snapshot fed to LoadDynamic must fail, not
	// crash.
	if _, _, err := LoadDynamic(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("type-confused snapshot loaded")
	}
}

func TestMachineSnapshotPreservesStats(t *testing.T) {
	m := pdm.NewMachine(pdm.Config{D: 2, B: 4, Model: pdm.DiskHead})
	m.WriteBlock(pdm.Addr{Disk: 1, Block: 3}, []pdm.Word{7})
	m.ReadBlock(pdm.Addr{Disk: 1, Block: 3})
	var buf bytes.Buffer
	if err := m.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := pdm.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Config() != m.Config() {
		t.Errorf("config %+v, want %+v", r.Config(), m.Config())
	}
	if r.Stats() != m.Stats() {
		t.Errorf("stats %+v, want %+v", r.Stats(), m.Stats())
	}
	if got := r.ReadBlock(pdm.Addr{Disk: 1, Block: 3})[0]; got != 7 {
		t.Errorf("data after restore = %d, want 7", got)
	}
}

// A snapshot of the word-padded field layout, whose headers carry no
// Version, or of any layout version but the current one, is refused
// with an error naming the version: its blocks would decode as garbage
// under the packed layout. The Dict refuses through its structures.
func TestSnapshotRefusesOtherLayout(t *testing.T) {
	snap := func(save func(*bytes.Buffer) error) []byte {
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	m := func(d int) *pdm.Machine { return pdm.NewMachine(pdm.Config{D: d, B: 16}) }
	dd, err := NewDynamic(m(40), DynamicConfig{Capacity: 20, SatWords: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewOneProbe(m(16), OneProbeConfig{Capacity: 20, SatWords: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sd, err := BuildStatic(m(12), StaticConfig{SatWords: 1, Case: CaseA, Seed: 1}, makeRecords(20, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDict(DictConfig{InitialCapacity: 8, SatWords: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		snap []byte
		skip int // framed sections ahead of the structure's own header
		load func(io.Reader) error
	}{
		{"DynamicDict", snap(func(b *bytes.Buffer) error { return dd.Snapshot(b) }), 0,
			func(r io.Reader) error { _, _, err := LoadDynamic(r); return err }},
		{"OneProbeDict", snap(func(b *bytes.Buffer) error { return op.Snapshot(b) }), 0,
			func(r io.Reader) error { _, _, err := LoadOneProbe(r); return err }},
		{"StaticDict", snap(func(b *bytes.Buffer) error { return sd.Snapshot(b) }), 0,
			func(r io.Reader) error { _, _, err := LoadStatic(r); return err }},
		{"DynamicDict", snap(func(b *bytes.Buffer) error { return d.Snapshot(b) }), 1,
			func(r io.Reader) error { _, err := LoadDict(r); return err }},
	} {
		if err := c.load(bytes.NewReader(c.snap)); err != nil {
			t.Fatalf("%s: current snapshot refused: %v", c.name, err)
		}
		for _, v := range []int{0, 1, layoutVersion + 1} {
			old := withVersion(t, c.snap, c.skip, v)
			err := c.load(bytes.NewReader(old))
			want := fmt.Sprintf("%s snapshot has field layout version %d", c.name, max(v, 1))
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s snapshot of version %d: load error %v, want one containing %q", c.name, v, err, want)
			}
		}
	}
}

// withVersion rewrites the header after skip framed sections of a
// snapshot to carry layout version v, or no Version at all for v = 0,
// as headers were written before they carried one.
func withVersion(t *testing.T, snap []byte, skip, v int) []byte {
	t.Helper()
	r := bytes.NewReader(snap)
	var out bytes.Buffer
	for range skip {
		sec, err := readSection(r)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(sec)
		if err := writeSection(&out, func(w io.Writer) error { _, err := w.Write(body); return err }); err != nil {
			t.Fatal(err)
		}
	}
	var h map[string]any
	if err := decodeHeader(r, &h); err != nil {
		t.Fatal(err)
	}
	if _, ok := h["Version"]; !ok {
		t.Fatal("current header carries no Version")
	}
	delete(h, "Version")
	if v > 0 {
		h["Version"] = v
	}
	if err := encodeHeader(&out, h); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(r)
	return append(out.Bytes(), rest...)
}
