package sched

import (
	"bytes"
	"testing"

	"pdmdict/internal/pdm"
)

// memBackend is a plain in-memory Backend for log tests.
type memBackend struct {
	m map[pdm.Word][]pdm.Word
}

func newMemBackend() *memBackend { return &memBackend{m: make(map[pdm.Word][]pdm.Word)} }

func (b *memBackend) LookupBatchOp(op *pdm.Op, shared []*pdm.Op, keys []pdm.Word) ([][]pdm.Word, []bool) {
	sats := make([][]pdm.Word, len(keys))
	oks := make([]bool, len(keys))
	for i, k := range keys {
		s, ok := b.m[k]
		if ok {
			sats[i] = append([]pdm.Word(nil), s...)
		}
		oks[i] = ok
	}
	return sats, oks
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
