package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pdmdict/internal/obs"
	"pdmdict/internal/sched"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing the shell's
// output while run executes on another goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunCanceledContext is the graceful-shutdown contract: canceling
// the context (what SIGINT/SIGTERM do via signal.NotifyContext) makes
// run finish the command in flight, flush the JSONL trace sink, and
// return nil — with the trace readable and non-empty afterwards.
func TestRunCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")

	inR, inW := io.Pipe()
	defer inW.Close()
	var out syncBuffer
	done := make(chan error, 1)
	go func() { done <- run(ctx, config{trace: tracePath}, inR, &out) }()

	if _, err := io.WriteString(inW, "put a 1 hello\nget a 1\n"); err != nil {
		t.Fatal(err)
	}
	// Both commands have completed once the get's answer is printed —
	// the shell is synchronous — so the cancel below arrives while the
	// loop is parked between commands, like a real signal would.
	waitFor(t, "get to answer", func() bool { return strings.Contains(out.String(), `"hello"`) })
	cancel()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after cancellation, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after context cancellation")
	}
	if got := out.String(); !strings.Contains(got, "drained in-flight operations") {
		t.Errorf("shutdown message missing from output:\n%s", got)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatalf("trace did not flush cleanly: %v", err)
	}
	if len(events) == 0 {
		t.Error("trace is empty; put/get events were not flushed")
	}
}

// TestRepairKeepsOtherDiskHealthState is the regression test for the
// old machine-wide degraded bit: with TWO disks known failed, repairing
// and verifying one of them must return only that disk to Healthy —
// the health report still shows the other disk Failed, and the store
// stays degraded. Under the single-bit scheme the post-repair cleanup
// erased everything known about the second disk.
func TestRepairKeepsOtherDiskHealthState(t *testing.T) {
	var in strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&in, "put f %d block-%d\n", i, i)
	}
	in.WriteString("fail 0\nfail 1\n")
	// Reads observe the fail-stops: both disks become Failed.
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&in, "get f %d\n", i)
	}
	// Both drives answer again (contents intact — fail-stop only denies
	// access), but only disk 0 is repaired and verified.
	in.WriteString("heal 0\nheal 1\nrepair 0\nhealth\nquit\n")

	var out syncBuffer
	if err := run(context.Background(), config{replicas: 2}, strings.NewReader(in.String()), &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "disk 0 rebuilt from replicas and verified healthy") {
		t.Fatalf("repair did not verify disk 0:\n%s", got)
	}
	if !strings.Contains(got, "disk 1 still failed") {
		t.Errorf("repair output lost disk 1's state:\n%s", got)
	}
	if !strings.Contains(got, "disk 0: healthy") {
		t.Errorf("health does not show disk 0 healthy:\n%s", got)
	}
	if !strings.Contains(got, "disk 1: failed") {
		t.Errorf("health lost disk 1's failed state:\n%s", got)
	}
}

// TestRunQuitFlushesTrace checks the ordinary exit paths share the same
// flush: quit (and EOF) must leave a parseable trace behind.
func TestRunQuitFlushesTrace(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	var out syncBuffer
	err := run(context.Background(), config{trace: tracePath},
		strings.NewReader("put a 1 x\nquit\n"), &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatalf("trace did not flush cleanly: %v", err)
	}
	if len(events) == 0 {
		t.Error("trace is empty")
	}
}

// TestSchedLogAppendsAcrossRuns starts the shell twice on one -schedlog
// path: the second run must append to the intent log, not truncate it,
// so replay sees both runs' writes in order.
func TestSchedLogAppendsAcrossRuns(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "intents.log")
	for _, in := range []string{"put a 1 first\nquit\n", "put b 2 second\nquit\n"} {
		var out syncBuffer
		if err := run(context.Background(), config{sched: true, schedlog: logPath}, strings.NewReader(in), &out); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	f, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	intents, err := sched.ReplayIntents(f)
	if err != nil {
		t.Fatalf("ReplayIntents: %v", err)
	}
	if len(intents) != 2 || intents[0].Key == intents[1].Key {
		t.Fatalf("replayed %d intents %+v, want one insert from each run", len(intents), intents)
	}
	for i, it := range intents {
		if it.Del {
			t.Errorf("intent %d is a delete, want the run's insert", i)
		}
	}
}
