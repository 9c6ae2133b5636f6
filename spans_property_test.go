package pdmdict_test

// Property test for the span protocol: whatever randomized mix of
// operations a dictionary runs, the event stream its machines emit must
// be a well-formed span forest — begins and ends balance, spans nest
// LIFO (the parent recorded on a begin is exactly the innermost open
// span), and batch events are attributed to the innermost open span.

import (
	"math/rand"
	"strings"
	"testing"

	"pdmdict"
	"pdmdict/internal/pdm"
	"pdmdict/internal/workload"
)

// spanChecker is a pdm.Hook that verifies the span protocol online, as
// events arrive, and accumulates totals for the end-of-run assertions.
type spanChecker struct {
	t        *testing.T
	stack    []pdm.Event // open spans, innermost last
	begins   int
	ends     int
	batches  int
	lastID   uint64
	lastStep int64
}

func (c *spanChecker) Event(e pdm.Event) {
	if e.Kind.IsSpan() {
		// Only span events sample the step counter; batch events leave
		// Step zero (blocks and steps ride the Addrs/Steps fields).
		if e.Step < c.lastStep {
			c.t.Errorf("step counter went backwards: %d after %d", e.Step, c.lastStep)
		}
		c.lastStep = e.Step
	}
	switch e.Kind {
	case pdm.EventSpanBegin:
		c.begins++
		if e.Span == 0 {
			c.t.Errorf("span begin %q has zero ID", e.Tag)
		}
		if e.Span <= c.lastID {
			c.t.Errorf("span IDs not strictly increasing: %d after %d", e.Span, c.lastID)
		}
		c.lastID = e.Span
		wantParent := uint64(0)
		if n := len(c.stack); n > 0 {
			wantParent = c.stack[n-1].Span
		}
		if e.Parent != wantParent {
			c.t.Errorf("span %d (%q) has parent %d, want innermost open span %d",
				e.Span, e.Tag, e.Parent, wantParent)
		}
		c.stack = append(c.stack, e)
	case pdm.EventSpanEnd:
		c.ends++
		n := len(c.stack)
		if n == 0 {
			c.t.Errorf("span end %d (%q) with no span open", e.Span, e.Tag)
			return
		}
		top := c.stack[n-1]
		if e.Span != top.Span {
			c.t.Errorf("span end %d (%q) closes out of LIFO order; innermost open is %d (%q)",
				e.Span, e.Tag, top.Span, top.Tag)
		}
		if e.Tag != top.Tag || e.Parent != top.Parent {
			c.t.Errorf("span end %d repeats tag=%q parent=%d, begin said tag=%q parent=%d",
				e.Span, e.Tag, e.Parent, top.Tag, top.Parent)
		}
		if e.Step < top.Step {
			c.t.Errorf("span %d ends at step %d before its begin step %d", e.Span, e.Step, top.Step)
		}
		if e.WallNanos != 0 {
			c.t.Errorf("span %d carries WallNanos=%d with no wall clock injected", e.Span, e.WallNanos)
		}
		c.stack = c.stack[:n-1]
	default:
		c.batches++
		wantSpan := uint64(0)
		if n := len(c.stack); n > 0 {
			wantSpan = c.stack[n-1].Span
		}
		if e.Span != wantSpan {
			c.t.Errorf("%s batch (tag %q) attributed to span %d, want innermost open span %d",
				e.Kind, e.Tag, e.Span, wantSpan)
		}
		if !strings.HasPrefix(e.Tag, pdm.FaultTagPrefix) && e.Tag != "" && len(c.stack) > 0 {
			if e.Tag != c.stack[len(c.stack)-1].Tag {
				c.t.Errorf("batch tag %q disagrees with innermost open span tag %q",
					e.Tag, c.stack[len(c.stack)-1].Tag)
			}
		}
	}
}

// hookedDict is the slice of the public surface the property needs: a
// dictionary whose single machine reports through an attachable hook.
type hookedDict interface {
	pdmdict.Dictionary
	SetHook(pdmdict.IOHook)
}

func TestSpanProtocolPropertyMixedWorkload(t *testing.T) {
	opts := func(seed int64) pdmdict.Options {
		return pdmdict.Options{Capacity: 512, SatWords: 2, Seed: uint64(seed)}
	}
	// Single-machine structures only: the checker verifies one machine's
	// LIFO protocol, and Dict/Dynamic interleave two machines' streams.
	builders := map[string]func(seed int64) (hookedDict, error){
		"basic": func(seed int64) (hookedDict, error) {
			return pdmdict.NewBasic(pdmdict.BasicOptions{Options: opts(seed)})
		},
		"hashtable": func(seed int64) (hookedDict, error) { return pdmdict.NewHashTable(opts(seed)) },
		"cuckoo":    func(seed int64) (hookedDict, error) { return pdmdict.NewCuckoo(opts(seed)) },
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{1, 42, 9001} {
				dict, err := build(seed)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				rng := rand.New(rand.NewSource(seed))
				checker := &spanChecker{t: t}
				dict.SetHook(checker)

				keys := workload.Uniform(400, 1<<40, seed+1)
				ops := workload.Ops(keys, 2000, workload.Mix{Lookup: 45, Insert: 40, Delete: 15},
					0.2, seed+2)
				for i, op := range ops {
					switch op.Kind {
					case workload.OpInsert:
						if err := dict.Insert(op.Key, []pdmdict.Word{op.Key, pdmdict.Word(i)}); err != nil {
							t.Fatalf("seed %d: insert %d: %v", seed, op.Key, err)
						}
					case workload.OpLookup:
						dict.Lookup(op.Key)
					case workload.OpDelete:
						dict.Delete(op.Key)
					}
					// Interleave occasional lookups of random absent keys so
					// the mix is not purely the generator's schedule.
					if rng.Intn(16) == 0 {
						dict.Lookup(pdmdict.Word(rng.Uint64()))
					}
				}

				if checker.begins == 0 {
					t.Fatalf("seed %d: workload emitted no spans", seed)
				}
				if checker.begins != checker.ends {
					t.Errorf("seed %d: %d span begins but %d ends", seed, checker.begins, checker.ends)
				}
				if len(checker.stack) != 0 {
					t.Errorf("seed %d: %d spans still open after the workload", seed, len(checker.stack))
				}
				if checker.batches == 0 {
					t.Errorf("seed %d: no batch events observed", seed)
				}
			}
		})
	}
}
