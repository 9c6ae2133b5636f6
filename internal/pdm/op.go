package pdm

import (
	"sync"
	"sync/atomic"
)

// Operation tokens. An Op identifies one logical dictionary operation —
// a lookup, an insert, a delete, or one LookupBatch call — so that every
// batch, fault, and span event the operation causes can be attributed to
// it exactly, even when many clients run concurrently or when several
// operations' probes are merged into one shared batch. Tokens make
// per-operation accounting a property of the event stream itself rather
// than a reconstruction from a shared span stack (which is inherently
// approximate under concurrency; see Span).
//
// An Op is owned by the goroutine running the operation: only that
// goroutine may open and close spans with OpSpan or issue *Op batches
// naming it as the primary token. The step/block counters, however, are
// atomics, so a merged batch issued by another goroutine (BatchReadShared)
// can charge a participating op concurrently, and observers may read the
// counters of an in-flight op at any time.
type Op struct {
	id     uint64
	client int
	keys   int

	steps  atomic.Int64
	reads  atomic.Int64
	writes atomic.Int64
	faults atomic.Int64

	// lanes break steps down per machine. A multi-machine dictionary
	// (two structures on disjoint disks during a rebuild) costs an
	// operation the MAXIMUM of its per-machine steps — the machines work
	// in parallel — while Steps() keeps the plain total. Lanes are
	// assigned on first charge; a token covers one logical operation,
	// which touches at most two machines: a Dict operation reaches the
	// draining and the filling structure, and a migration that finishes
	// inside an operation never starts another before it ends. A lane
	// holds its machine's serial, not the machine: a token never keeps
	// a machine alive, however long its caller keeps it (see opSlab).
	lanes     [opLanes]atomic.Uint64
	laneSteps [opLanes]atomic.Int64

	// stack is the op's private span stack, nil while no span of the op
	// is open. It replaces the machine's shared stack for token-carrying
	// operations: a nested span parents onto this op's innermost open
	// span, never another goroutine's. The stack is borrowed from the
	// machine that opens the op's root span and handed back when the
	// root span closes (see openSpan). Only the owning goroutine touches
	// it.
	stack *spanStack
}

// MakeOp constructs a token with an explicitly chosen ID. It exists for
// callers that manage their own ID space — a dictionary that outlives
// machine generations, or a trace replayer re-minting recorded IDs.
// Everyone else should use (*Machine).NewOp. ID 0 means "no operation"
// and must not be used. The token is an idle one handed back with
// ReleaseOp when there is one, so a call that mints and releases its
// own token allocates none once warm; otherwise it is carved from the
// current slab of fresh tokens, so a caller that keeps its token (MintOp)
// costs a fraction of an allocation.
func MakeOp(id uint64, client, keys int) *Op {
	o := idleOps.get()
	o.id, o.client, o.keys = id, client, keys
	return o
}

// ReleaseOp hands back a token that a call minted for itself, once that
// call has returned: nothing may charge, read or span the token
// afterwards, since the next MakeOp or NewOp reissues it under a new ID.
// Only the minting call may release its token; one minted for a caller
// (MintOp, then a Ctx entry point) is the caller's to keep reading and
// is never released. A token still holding an open span — its operation
// panicked before closing it — is dropped instead, so no later op
// inherits the stack. A released token joins the idle list wherever it
// was carved; its slab is freed once none of its tokens is reachable.
// A nil op is ignored.
func ReleaseOp(o *Op) {
	if o == nil || o.stack != nil {
		return
	}
	*o = Op{}
	idleOps.put(o)
}

// opList hands out tokens for MakeOp: released ones first, then fresh
// ones carved from a slab. The idle list holds only released tokens, so
// it never grows beyond the most self-minted tokens that were ever open
// at once. It is a plain slice rather than a sync.Pool: a pool the
// collector drains would make a call's allocation count depend on when
// the collector last ran. Carving under the same lock, rather than
// racing on a shared slab, never makes two minters allocate a slab
// where one would do.
type opList struct {
	mu   sync.Mutex
	ops  []*Op // guarded by mu; released tokens
	slab []Op  // guarded by mu; the current slab's tokens not yet handed out
}

// opSlabLen is how many tokens one slab holds: as many as fit one
// 8 192-byte size class, counting the 8-byte header the allocator puts
// on an object over 512 bytes that holds pointers. 85 × 96 + 8 = 8 168
// bytes; a 64-token slab would fall into the 6 528-byte class and waste
// 6 %.
const opSlabLen = 85

// opSlab is a block of fresh tokens, carved one at a time. A slab stays
// allocated while any of its tokens is reachable, so it must not hold
// anything a kept token would pin in turn: a completed token holds no
// pointer (its lanes are machine serials and its span stack went back
// to the machine that lent it), and a kept token costs its caller the
// slab's 8 KB at most, never a machine.
type opSlab [opSlabLen]Op

// idleOps is the process's one token source. A released token is reset
// and names no machine, so any minter may reissue any of them.
var idleOps opList

// get pops an idle token or, when there is none, carves the next token
// of the current slab, starting a new slab when that one is used up.
func (l *opList) get() *Op {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.ops); n > 0 {
		o := l.ops[n-1]
		l.ops[n-1] = nil
		l.ops = l.ops[:n-1]
		return o
	}
	if len(l.slab) == 0 {
		l.slab = new(opSlab)[:]
	}
	o := &l.slab[0]
	l.slab = l.slab[1:]
	return o
}

// put parks a reset token.
func (l *opList) put(o *Op) {
	l.mu.Lock()
	l.ops = append(l.ops, o)
	l.mu.Unlock()
}

// NewOp mints a token for one operation issued by the given client over
// the given number of keys (1 for single-key operations). IDs come from
// a per-machine counter starting at 1, so equal workloads mint equal
// IDs and traces stay deterministic, whether or not the token itself is
// a recycled one (see MakeOp).
func (m *Machine) NewOp(client, keys int) *Op {
	return MakeOp(m.nextOp.Add(1), client, keys)
}

// ID returns the op's machine-unique ID (0 for a nil op).
func (o *Op) ID() uint64 {
	if o == nil {
		return 0
	}
	return o.id
}

// Keys returns how many keys the operation covers (0 for a nil op).
func (o *Op) Keys() int {
	if o == nil {
		return 0
	}
	return o.keys
}

// Steps returns the parallel I/O steps charged to the op so far,
// including stall surcharges from fault injection.
func (o *Op) Steps() int64 {
	if o == nil {
		return 0
	}
	return o.steps.Load()
}

// Blocks returns the block transfers charged to the op so far: its
// reads plus its writes.
func (o *Op) Blocks() int64 {
	return o.Reads() + o.Writes()
}

// Reads returns the block reads charged to the op so far.
func (o *Op) Reads() int64 {
	if o == nil {
		return 0
	}
	return o.reads.Load()
}

// Writes returns the block writes charged to the op so far.
func (o *Op) Writes() int64 {
	if o == nil {
		return 0
	}
	return o.writes.Load()
}

// Faults returns the fault events charged to the op so far.
func (o *Op) Faults() int64 {
	if o == nil {
		return 0
	}
	return o.faults.Load()
}

// opLanes bounds how many distinct machines one token tracks. A token
// covers one logical operation, which touches at most two machines
// (draining + filling structure); extra machines beyond the bound still
// charge the total but are not broken out per machine.
const opLanes = 2

// MaxMachineSteps returns the largest per-machine step total charged to
// the op: its cost under the parallel-disk convention that machines on
// disjoint disks serve the operation simultaneously. For an op confined
// to one machine this equals Steps().
func (o *Op) MaxMachineSteps() int64 {
	if o == nil {
		return 0
	}
	var max int64
	for i := range o.laneSteps {
		if v := o.laneSteps[i].Load(); v > max {
			max = v
		}
	}
	return max
}

// laneFor returns the per-machine step counter for m, claiming a free
// lane on first use, or nil if all lanes are taken by other machines.
func (o *Op) laneFor(m *Machine) *atomic.Int64 {
	for i := range o.lanes {
		v := o.lanes[i].Load()
		if v == m.serial {
			return &o.laneSteps[i]
		}
		if v == 0 {
			if o.lanes[i].CompareAndSwap(0, m.serial) || o.lanes[i].Load() == m.serial {
				return &o.laneSteps[i]
			}
		}
	}
	return nil
}

// charge accounts one batch on machine m against the op. Charging is
// unconditional — it does not depend on a hook being installed — so
// callers can measure operations through their token alone.
func (o *Op) charge(m *Machine, kind EventKind, steps, blocks, faults int) {
	o.steps.Add(int64(steps))
	if lane := o.laneFor(m); lane != nil {
		lane.Add(int64(steps))
	}
	if kind == EventWrite {
		o.writes.Add(int64(blocks))
	} else {
		o.reads.Add(int64(blocks))
	}
	if faults != 0 {
		o.faults.Add(int64(faults))
	}
}

// chargeOps charges a batch's cost to its primary op and, for merged
// batches, to every participating op: each participant is charged the
// batch's full steps and blocks once (the batch ran on their behalf;
// splitting it would make per-op worst-case bounds meaningless).
func chargeOps(m *Machine, op *Op, shared []*Op, kind EventKind, steps, blocks, faults int) {
	if op != nil {
		op.charge(m, kind, steps, blocks, faults)
	}
	for _, o := range shared {
		if o != nil {
			o.charge(m, kind, steps, blocks, faults)
		}
	}
}

// OpSpan opens a span owned by op. It behaves like Span — fires an
// EventSpanBegin, returns the SpanEnd that fires the matching
// EventSpanEnd — but the span parents onto op's innermost open span
// (its private stack), not the machine's shared stack, so concurrent
// operations nest correctly: the returned SpanEnd ends exactly the span
// this call opened. Span and batch events of a token-carrying operation
// are stamped with the op's ID and client; the root span additionally
// carries the op's key count. A nil op falls back to Span(tag)
// unchanged.
//
// Spans of one op may be opened on different machines (a dictionary
// migrating between two machines opens phases on both); the op's stack
// spans them seamlessly, though span IDs are only unique per machine.
func (m *Machine) OpSpan(op *Op, tag Tag) SpanEnd {
	if op == nil {
		return m.Span(tag)
	}
	if !m.openSpan(op, tag) {
		return SpanEnd{}
	}
	return SpanEnd{m, op}
}

// BatchReadOp is BatchRead with the batch charged and attributed to op:
// the op's counters are charged the batch's steps and blocks, and the
// emitted event carries the op's ID, client, and innermost span.
func (m *Machine) BatchReadOp(op *Op, addrs []Addr) [][]Word {
	return m.BatchReadInto(new(ReadBuf), op, nil, addrs)
}

// BatchWriteOp is BatchWrite charged and attributed to op.
func (m *Machine) BatchWriteOp(op *Op, writes []BlockWrite) {
	m.batchWrite(op, writes, false)
}

// BatchReadShared performs one merged batch read on behalf of several
// operations — the group-commit shape, where concurrent clients' probes
// are deduplicated into one shared batch. The machine's counters are
// charged once; every listed op is charged the batch's full steps and
// blocks (the accounting rule for merged batches: each participant's
// worst-case bound must cover the batch it rode on). The emitted event
// carries the full attribution list in Ops.
func (m *Machine) BatchReadShared(ops []*Op, addrs []Addr) [][]Word {
	return m.BatchReadInto(new(ReadBuf), nil, ops, addrs)
}
