package sched

import (
	"bytes"
	"encoding/hex"
	"runtime"
	"slices"
	"testing"

	"pdmdict/internal/pdm"
)

// memBackend is a plain in-memory Backend for log tests.
type memBackend struct {
	m map[pdm.Word][]pdm.Word
}

func newMemBackend() *memBackend { return &memBackend{m: make(map[pdm.Word][]pdm.Word)} }

func (b *memBackend) LookupBatchInto(op *pdm.Op, shared []*pdm.Op, keys []pdm.Word, sats [][]pdm.Word, oks []bool) {
	for i, k := range keys {
		s, ok := b.m[k]
		sats[i], oks[i] = nil, ok
		if ok {
			sats[i] = append([]pdm.Word(nil), s...)
		}
	}
}

func (b *memBackend) InsertOp(op *pdm.Op, x pdm.Word, sat []pdm.Word) error {
	b.m[x] = append([]pdm.Word(nil), sat...)
	return nil
}

func (b *memBackend) DeleteOp(op *pdm.Op, x pdm.Word) bool {
	_, ok := b.m[x]
	delete(b.m, x)
	return ok
}

func testIntents() []Intent {
	return []Intent{
		{Key: 1, Sat: []pdm.Word{10, 11}},
		{Key: 2, Sat: []pdm.Word{20}},
		{Del: true, Key: 1},
		{Key: 3, Sat: nil},
		{Key: 0xFFFFFFFFFFFFFFFF, Sat: []pdm.Word{1, 2, 3, 4}},
	}
}

func TestIntentLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewIntentLog(&buf)
	want := testIntents()
	for i, in := range want {
		if err := l.Append(in); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
		// Commit after each record in the first half, once at the end for
		// the rest — markers must be transparent to replay.
		if i < len(want)/2 {
			if err := l.Commit(); err != nil {
				t.Fatalf("Commit(%d): %v", i, err)
			}
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("final Commit: %v", err)
	}
	got, err := ReplayIntents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReplayIntents: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d intents, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Del != want[i].Del || got[i].Key != want[i].Key || len(got[i].Sat) != len(want[i].Sat) {
			t.Fatalf("intent %d: got %+v want %+v", i, got[i], want[i])
		}
		for j := range want[i].Sat {
			if got[i].Sat[j] != want[i].Sat[j] {
				t.Fatalf("intent %d sat %d: got %d want %d", i, j, got[i].Sat[j], want[i].Sat[j])
			}
		}
	}
}

func TestIntentLogTornTail(t *testing.T) {
	var buf bytes.Buffer
	l := NewIntentLog(&buf)
	want := testIntents()
	for _, in := range want {
		if err := l.Append(in); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	full := buf.Bytes()
	// Every proper prefix must replay without error to some prefix of the
	// intents — a crash can tear the log at any byte.
	prev := 0
	for cut := 0; cut < len(full); cut++ {
		got, err := ReplayIntents(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut %d: unexpected error %v", cut, err)
		}
		if len(got) > len(want) {
			t.Fatalf("cut %d: replayed %d intents from a log of %d", cut, len(got), len(want))
		}
		if len(got) < prev {
			t.Fatalf("cut %d: replay went backwards (%d after %d)", cut, len(got), prev)
		}
		prev = len(got)
		for i := range got {
			if got[i].Key != want[i].Key || got[i].Del != want[i].Del {
				t.Fatalf("cut %d: intent %d diverged", cut, i)
			}
		}
	}
}

func TestIntentLogCorruptTail(t *testing.T) {
	var buf bytes.Buffer
	l := NewIntentLog(&buf)
	want := testIntents()
	for _, in := range want {
		if err := l.Append(in); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	full := append([]byte(nil), buf.Bytes()...)
	// Flip one bit in the LAST record's checksum region: replay must keep
	// everything before it and drop the corrupt tail, without error.
	full[len(full)-1] ^= 0x40
	got, err := ReplayIntents(bytes.NewReader(full))
	if err != nil {
		t.Fatalf("ReplayIntents: %v", err)
	}
	if len(got) != len(want) {
		// The flipped byte is in the trailing commit marker; all real
		// intents must survive.
		t.Fatalf("replayed %d intents, want %d", len(got), len(want))
	}
}

func TestIntentLogCrashReplayRestoresBackend(t *testing.T) {
	var buf bytes.Buffer
	be := newMemBackend()
	s := New(be, Config{MaxBatch: 1, Log: NewIntentLog(&buf)})
	for k := pdm.Word(1); k <= 40; k++ {
		if err := s.InsertOp(nil, k, []pdm.Word{k * 100}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.DeleteOp(nil, 7); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// "Crash": tear the last 3 bytes off the log, then recover into a
	// fresh backend.
	torn := buf.Bytes()[:buf.Len()-3]
	intents, err := ReplayIntents(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("ReplayIntents: %v", err)
	}
	fresh := newMemBackend()
	if err := ApplyIntents(fresh, intents); err != nil {
		t.Fatalf("ApplyIntents: %v", err)
	}
	// Every acknowledged group except possibly the torn tail one must be
	// present; the delete of 7 tore off only if its record was in the
	// final bytes. Check all fully-committed inserts.
	for k := pdm.Word(1); k <= 40; k++ {
		sat, ok := fresh.m[k]
		if k == 7 {
			continue // deleted later; replay state depends on the tear point
		}
		if !ok && k < 39 {
			t.Fatalf("key %d lost by replay", k)
		}
		if ok && sat[0] != k*100 {
			t.Fatalf("key %d: replayed sat %d, want %d", k, sat[0], k*100)
		}
	}
	if _, ok := fresh.m[7]; ok {
		t.Fatalf("delete of key 7 not replayed")
	}
}

// TestIntentLogGoldenBytes pins the on-disk format: a fixed sequence of
// inserts, a delete and two commits encodes to exactly these bytes.
func TestIntentLogGoldenBytes(t *testing.T) {
	const want = "010700000000000000020000000100000000000000ffffffffffffffff39089a4c" +
		"0208070605040302010000000060399cc2" +
		"030000000000000000000000004c2abeb2" +
		"0109000000000000000000000096a54b4f" +
		"030000000000000000000000004c2abeb2"
	var buf bytes.Buffer
	l := NewIntentLog(&buf)
	for _, step := range []func() error{
		func() error { return l.Append(Intent{Key: 7, Sat: []pdm.Word{1, 0xFFFFFFFFFFFFFFFF}}) },
		func() error { return l.Append(Intent{Del: true, Key: 0x0102030405060708}) },
		l.Commit,
		func() error { return l.Append(Intent{Key: 9}) },
		l.Commit,
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("log bytes\n  %s\nwant\n  %s", got, want)
	}
}

// FuzzReplayIntents: on arbitrary bytes, replay never panics and never
// allocates past its maxIntentSat bound, and what it returns encodes
// through IntentLog to a log that replays to the same intents.
func FuzzReplayIntents(f *testing.F) {
	var buf bytes.Buffer
	l := NewIntentLog(&buf)
	for _, in := range testIntents() {
		l.Append(in)
	}
	l.Commit()
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()-5])
	f.Add([]byte{intentInsert, 1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0x0f, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := ReplayIntents(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("replay of in-memory bytes failed: %v", err)
		}
		// The record scratch is at most one maximal body; the reader's
		// buffer and what is returned are linear in the input.
		if n, bound := after.TotalAlloc-before.TotalAlloc, uint64(8*maxIntentSat+64<<10+32*len(data)); n > bound {
			t.Fatalf("replay of %d bytes allocated %d bytes, bound %d", len(data), n, bound)
		}
		var again bytes.Buffer
		l := NewIntentLog(&again)
		for _, in := range got {
			if err := l.Append(in); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
		back, err := ReplayIntents(bytes.NewReader(again.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(got, back, func(a, b Intent) bool {
			return a.Del == b.Del && a.Key == b.Key && slices.Equal(a.Sat, b.Sat)
		}) {
			t.Fatalf("replayed %v, re-encoded and replayed %v", got, back)
		}
	})
}
