package pdm

import "sync/atomic"

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
	blocks atomic.Int64
	reads  atomic.Int64
	writes atomic.Int64
	faults atomic.Int64

	// lanes break steps down per machine. A multi-machine dictionary
	// (two structures on disjoint disks during a rebuild) costs an
	// operation the MAXIMUM of its per-machine steps — the machines work
	// in parallel — while Steps() keeps the plain total. Lanes are
	// assigned on first charge; a token is meant to cover one logical
	// operation, which touches at most a few machines.
	lanes     [opLanes]atomic.Pointer[Machine]
	laneSteps [opLanes]atomic.Int64

	// frames is the op's private span stack. It replaces the machine's
	// shared stack for token-carrying operations: a nested span parents
	// onto this op's innermost open span, never another goroutine's.
	// Only the owning goroutine touches it.
	frames []spanFrame
}

// MakeOp constructs a token with an explicitly chosen ID. It exists for
// callers that manage their own ID space — a dictionary that outlives
// machine generations, or a trace replayer re-minting recorded IDs.
// Everyone else should use (*Machine).NewOp. ID 0 means "no operation"
// and must not be used.
func MakeOp(id uint64, client, keys int) *Op {
	return &Op{id: id, client: client, keys: keys}
}

// NewOp mints a token for one operation issued by the given client over
// the given number of keys (1 for single-key operations). IDs come from
// a per-machine counter starting at 1, so equal workloads mint equal
// IDs and traces stay deterministic.
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

// ClientID returns the issuing client's ID (0 for a nil op).
func (o *Op) ClientID() int {
	if o == nil {
		return 0
	}
	return o.client
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

// Blocks returns the block transfers charged to the op so far.
func (o *Op) Blocks() int64 {
	if o == nil {
		return 0
	}
	return o.blocks.Load()
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
const opLanes = 4

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
		p := o.lanes[i].Load()
		if p == m {
			return &o.laneSteps[i]
		}
		if p == nil {
			if o.lanes[i].CompareAndSwap(nil, m) || o.lanes[i].Load() == m {
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
	o.blocks.Add(int64(blocks))
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
// EventSpanBegin, returns the closer that fires the matching
// EventSpanEnd — but the span parents onto op's innermost open span
// (its private stack), not the machine's shared stack, so concurrent
// operations nest correctly: the returned closure ends exactly the span
// this call opened. Span and batch events of a token-carrying operation
// are stamped with the op's ID and client; the root span additionally
// carries the op's key count. A nil op falls back to Span(tag)
// unchanged.
//
// Spans of one op may be opened on different machines (a dictionary
// migrating between two machines opens phases on both); the op's stack
// spans them seamlessly, though span IDs are only unique per machine.
func (m *Machine) OpSpan(op *Op, tag string) func() {
	if op == nil {
		return m.Span(tag)
	}
	if !m.hooked.Load() {
		return noopEndSpan
	}
	m.emitMu.Lock()
	if m.hook == nil {
		m.emitMu.Unlock()
		return noopEndSpan
	}
	f := spanFrame{path: tag}
	if n := len(op.frames); n > 0 {
		top := op.frames[n-1]
		f.parent = top.id
		f.path = top.path + "." + tag
	}
	m.nextSpan++
	f.id = m.nextSpan
	if m.wall != nil {
		f.beginWall = m.wall()
	}
	op.frames = append(op.frames, f)
	ev := Event{
		Kind:   EventSpanBegin,
		Tag:    f.path,
		Span:   f.id,
		Parent: f.parent,
		Step:   m.pios.Load(),
		Op:     op.id,
		Client: op.client,
	}
	if f.parent == 0 {
		ev.Keys = op.keys
	}
	m.seq++
	ev.Seq = m.seq
	m.hook.Event(ev)
	m.emitMu.Unlock()
	return func() { m.endOpSpan(op) }
}

// endOpSpan closes op's innermost open span. Per-op spans are strictly
// nested on the owning goroutine, so the innermost frame is the one the
// matching OpSpan call pushed.
func (m *Machine) endOpSpan(op *Op) {
	m.emitMu.Lock()
	n := len(op.frames)
	if n == 0 {
		m.emitMu.Unlock()
		return
	}
	f := op.frames[n-1]
	op.frames = op.frames[:n-1]
	if m.hook == nil {
		m.emitMu.Unlock()
		return
	}
	m.seq++
	ev := Event{
		Kind:   EventSpanEnd,
		Tag:    f.path,
		Span:   f.id,
		Parent: f.parent,
		Step:   m.pios.Load(),
		Seq:    m.seq,
		Op:     op.id,
		Client: op.client,
	}
	if m.wall != nil {
		ev.WallNanos = m.wall() - f.beginWall
	}
	m.hook.Event(ev)
	m.emitMu.Unlock()
}

// BatchReadOp is BatchRead with the batch charged and attributed to op:
// the op's counters are charged the batch's steps and blocks, and the
// emitted event carries the op's ID, client, and innermost span.
func (m *Machine) BatchReadOp(op *Op, addrs []Addr) [][]Word {
	return m.BatchReadInto(new(ReadBuf), op, nil, addrs)
}

// BatchWriteOp is BatchWrite charged and attributed to op.
func (m *Machine) BatchWriteOp(op *Op, writes []BlockWrite) {
	m.batchWrite(op, writes)
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
