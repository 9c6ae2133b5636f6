// Package pdm implements a simulator for the parallel disk model of
// Vitter and Shriver, the cost model in which every result of the paper
// "Deterministic load balancing and dictionaries in the parallel disk
// model" (SPAA 2006) is stated.
//
// The machine consists of D storage devices, each an array of blocks with
// capacity for B data items. A data item is one machine word, "assumed to
// be sufficiently large to hold a pointer value or a key value". The
// performance of an algorithm is measured in parallel I/Os: one parallel
// I/O retrieves (or writes) at most one block from (or to) each of the D
// devices. A batch that addresses the same disk more than once costs as
// many parallel I/Os as the deepest per-disk queue.
//
// The package also implements the parallel disk *head* model (one disk
// with D independent read/write heads, Aggarwal–Vitter), which Section 5
// of the paper uses for unstriped expanders: there, any D blocks can be
// accessed in a single parallel I/O regardless of which device they live
// on.
//
// The machine is safe for concurrent use, and concurrency is the point:
// storage is sharded per disk (each disk has its own lock and block
// store), the I/O counters are per-shard and per-machine atomics merged
// by Stats, and large batches fan their block copies out across a
// bounded worker pool, so independent clients contend only on the disks
// they actually touch — the model's own picture of D devices serving a
// batch in parallel. Batches are not atomic units under concurrent use:
// two overlapping batches may interleave per block (each single block
// access is consistent). Event emission is serialized separately, so a
// trace remains one well-formed, totally ordered stream; see Hook.
package pdm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pdmdict/internal/reuse"
)

// Word is the unit of storage: one data item of the model.
type Word = uint64

// Model selects the cost model used to account batch accesses.
type Model int

const (
	// ParallelDisk is the standard parallel disk model: a parallel I/O
	// may touch at most one block per disk.
	ParallelDisk Model = iota
	// DiskHead is the parallel disk head model: a parallel I/O may touch
	// any D blocks, regardless of placement.
	DiskHead
)

// String returns the conventional name of the model.
func (m Model) String() string {
	switch m {
	case ParallelDisk:
		return "parallel-disk"
	case DiskHead:
		return "disk-head"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Config describes a machine.
type Config struct {
	// D is the number of disks (or heads in the DiskHead model).
	D int
	// B is the block capacity in words.
	B int
	// Model selects the accounting discipline. The zero value is the
	// standard parallel disk model.
	Model Model
	// Workers bounds the worker pool that fans one large batch's block
	// copies out across shards. 0 selects the default, min(D,
	// GOMAXPROCS); 1 keeps every batch on its issuing goroutine.
	// Workers never affects results, accounting, or traces — only
	// wall-clock parallelism. It is not persisted in snapshots.
	Workers int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.D <= 0 {
		return fmt.Errorf("pdm: D must be positive, got %d", c.D)
	}
	if c.B <= 0 {
		return fmt.Errorf("pdm: B must be positive, got %d", c.B)
	}
	if c.Workers < 0 {
		return fmt.Errorf("pdm: Workers must be non-negative, got %d", c.Workers)
	}
	return nil
}

// Addr identifies one block: block index Block on disk Disk.
type Addr struct {
	Disk  int
	Block int
}

// String formats the address as disk:block.
func (a Addr) String() string { return fmt.Sprintf("%d:%d", a.Disk, a.Block) }

// DepthBuckets is the resolution of Stats.DepthCounts: batch depths
// 1..DepthBuckets are counted exactly; deeper batches saturate into the
// last bucket.
const DepthBuckets = 64

// Stats is a snapshot of the machine's I/O counters.
type Stats struct {
	// ParallelIOs is the number of parallel I/O steps performed.
	ParallelIOs int64
	// BlockReads and BlockWrites count individual block transfers
	// (several may share one parallel I/O).
	BlockReads  int64
	BlockWrites int64
	// MaxBatch is the largest per-disk queue depth seen in any single
	// batch; values above 1 indicate a batch that was not truly parallel.
	// In a Stats returned by Sub it covers only the window between the
	// two snapshots (capped at DepthBuckets); otherwise it is the
	// lifetime maximum.
	MaxBatch int
	// DepthCounts[i] counts the non-empty batches whose per-disk queue
	// depth was i+1 (the last bucket also absorbs anything deeper). The
	// cumulative counts let Sub recover the worst batch of a window, and
	// double as a per-batch depth histogram.
	DepthCounts [DepthBuckets]int64
}

// Sub returns the difference s - t, counter by counter. It is the usual
// way to measure the cost of an operation: snapshot before, snapshot
// after, subtract. The returned MaxBatch is the deepest batch of the
// window itself — recovered from the DepthCounts deltas, not the
// lifetime maximum — so deltas report the window's worst batch even
// when an earlier batch was deeper.
func (s Stats) Sub(t Stats) Stats {
	out := Stats{
		ParallelIOs: s.ParallelIOs - t.ParallelIOs,
		BlockReads:  s.BlockReads - t.BlockReads,
		BlockWrites: s.BlockWrites - t.BlockWrites,
	}
	for i := range s.DepthCounts {
		out.DepthCounts[i] = s.DepthCounts[i] - t.DepthCounts[i]
	}
	for i := DepthBuckets - 1; i >= 0; i-- {
		if out.DepthCounts[i] > 0 {
			out.MaxBatch = i + 1
			break
		}
	}
	return out
}

// EventKind distinguishes the direction of a traced batch, or marks a
// span boundary.
type EventKind uint8

// Event kinds.
const (
	EventRead EventKind = iota
	EventWrite
	// EventSpanBegin and EventSpanEnd bracket one operation span opened
	// with Span. They carry no addresses; their cost lives in the step
	// counter timestamps (Event.Step).
	EventSpanBegin
	EventSpanEnd
	// EventHealth announces one disk's health-state transition (From →
	// To, Addrs[0].Disk identifying the disk). It is an annotation: it
	// transfers no blocks and charges no steps.
	EventHealth
	// EventAlert announces one alert-instance transition synthesized by
	// a monitoring sink (Rule, From, To, Value). Like EventHealth it is
	// an annotation carrying no I/O cost.
	EventAlert
)

// String returns "read", "write", "span_begin", "span_end", "health",
// or "alert".
func (k EventKind) String() string {
	switch k {
	case EventWrite:
		return "write"
	case EventSpanBegin:
		return "span_begin"
	case EventSpanEnd:
		return "span_end"
	case EventHealth:
		return "health"
	case EventAlert:
		return "alert"
	default:
		return "read"
	}
}

// IsSpan reports whether the kind marks a span boundary rather than a
// batch.
func (k EventKind) IsSpan() bool { return k == EventSpanBegin || k == EventSpanEnd }

// IsAnnotation reports whether the kind is a stream annotation — a
// health or alert transition — rather than an accounted batch or a span
// boundary. Annotations carry zero Steps by construction; accounting
// sinks skip them.
func (k EventKind) IsAnnotation() bool { return k == EventHealth || k == EventAlert }

// Event describes one accounted batch (what was transferred, what it
// cost, and which structure layer issued it — the innermost span path at
// issue time, dot-joined, e.g. "insert.probe") or one span boundary
// (EventSpanBegin/EventSpanEnd, identifying the operation the following
// batches belong to).
//
// Addrs aliases the caller's batch and is valid only for the duration
// of the Hook call; a sink that retains events must copy it.
type Event struct {
	// Kind is the batch direction or the span boundary marker.
	Kind EventKind
	// Tag is the span path active when the batch was issued ("" when
	// untagged). For span events it is the span's own dot-joined path.
	Tag string
	// Addrs are the batch's block addresses, in request order (nil for
	// span events).
	Addrs []Addr
	// Steps is the parallel-I/O cost charged for the batch.
	Steps int
	// Depth is the deepest per-disk queue of the batch.
	Depth int

	// Span is the ID of the span this event belongs to: for span events
	// the span's own ID, for batch and fault events the innermost open
	// span at issue time (0 = outside any span). IDs are assigned from a
	// per-machine counter, so equal workloads produce equal IDs. For a
	// token-carrying event the span is the owning op's innermost span,
	// not the machine's shared stack.
	Span uint64
	// Op is the ID of the operation token this event belongs to (0 = no
	// token). Tokens make attribution exact under concurrency: every
	// batch, fault, and span event of a token-carrying operation is
	// stamped with the op's ID, so per-op accounting never has to guess
	// from a shared span stack.
	Op uint64
	// Client is the owning op's client ID (meaningful only when Op != 0
	// or Ops is non-empty — 0 otherwise).
	Client int
	// Keys is the owning op's key count, stamped on the root
	// EventSpanBegin of the operation (0 elsewhere). Consumers use it to
	// amortize batch-operation cost per key.
	Keys int
	// Ops is the attribution list of a merged batch (BatchReadShared):
	// every operation the shared batch was issued on behalf of, in
	// request order. Each listed op was charged the batch's full cost.
	Ops []uint64
	// Parent is the enclosing span's ID on span events (0 = root span,
	// i.e. a top-level dictionary operation).
	Parent uint64
	// Rule names the alert rule (plus "[label]" for a labeled instance)
	// on EventAlert events ("" elsewhere).
	Rule string
	// From and To are the state names of a transition: health states on
	// EventHealth, alert states on EventAlert ("" elsewhere).
	From string
	To   string
	// Value is the rule's sampled value in fixed-point micro-units on
	// EventAlert events (e.g. a skew ratio of 1.5 is 1500000).
	Value int64
	// Step is the machine's cumulative parallel-I/O step counter when a
	// span event fired — the deterministic timestamp. The I/O cost of a
	// span is its end Step minus its begin Step.
	Step int64
	// Seq is the machine-assigned emission sequence number (1, 2, …):
	// the total order in which events reached the hook. Concurrent
	// batches serialize through the machine's emission lock, so the
	// stream a hook sees has no gaps, duplicates, or reorderings. Like
	// WallNanos it is carried for live consumers only and is excluded
	// from serialized traces by construction: in a single-threaded run
	// Seq is implied by position, so traces stay byte-identical by seed.
	Seq uint64
	// WallNanos is the span's wall-clock duration in nanoseconds on
	// EventSpanEnd, when a wall clock was injected with SetWallClock
	// (0 otherwise). It is carried for live metrics only and is excluded
	// from serialized traces by construction, keeping trace determinism.
	WallNanos int64
}

// Hook receives one Event per non-empty batch. The machine serializes
// every emission through one internal lock, so a hook sees a totally
// ordered stream (Event.Seq is its position) even under concurrent
// batches, and need not be safe for concurrent use with respect to the
// machine's own calls. The emission lock is held during the call: a
// hook may read machine state (Stats, Peek, PerDiskIOs — the I/O it
// observes is already accounted), but must not issue I/O, open spans,
// or install hooks from inside Event. A nil hook (the default) costs
// one predictable branch and zero allocations per batch.
type Hook interface {
	Event(Event)
}

// shard is one disk's storage: its own lock, block store, checksums,
// and transfer tally. Independent batches touching disjoint disks never
// contend.
type shard struct {
	mu     sync.Mutex
	blocks [][]Word // guarded by mu; blocks[b] is the content of block b, nil = never written
	sums   []uint32 // guarded by mu; sums[b] is the CRC32 of block b, kept in lockstep with blocks

	ios atomic.Int64 // block transfers served (reads + writes), incl. failed Try accesses

	b       int    // block capacity in words (copied from Config.B)
	zeroSum uint32 // CRC32 of an all-zero block (what block materializes)

	_ [40]byte // pad shards apart so their locks don't false-share
}

// grow extends the block and checksum arrays to n slots in one step,
// with geometric capacity growth, so first touch of a high block is
// amortized O(1) rather than O(n) appends. Callers hold s.mu.
func (s *shard) growLocked(n int) {
	if n <= len(s.blocks) {
		return
	}
	if cap(s.blocks) < n {
		c := 2 * cap(s.blocks)
		if c < n {
			c = n
		}
		if c < 8 {
			c = 8
		}
		nb := make([][]Word, len(s.blocks), c)
		copy(nb, s.blocks)
		s.blocks = nb
		ns := make([]uint32, len(s.sums), c)
		copy(ns, s.sums)
		s.sums = ns
	}
	old := len(s.blocks)
	s.blocks = s.blocks[:n]
	s.sums = s.sums[:n]
	for i := old; i < n; i++ {
		s.blocks[i] = nil
		s.sums[i] = s.zeroSum
	}
}

// block returns the live slice for a block, allocating it on first
// touch. A fresh block's checksum slot already holds the all-zero CRC.
// Callers hold s.mu.
func (s *shard) blockLocked(b int) []Word {
	if b >= len(s.blocks) {
		s.growLocked(b + 1)
	}
	if s.blocks[b] == nil {
		s.blocks[b] = make([]Word, s.b)
	}
	return s.blocks[b]
}

// verify reports whether a block's content matches its stored checksum.
// Unmaterialized blocks are trivially valid. Callers hold s.mu.
func (s *shard) verifyLocked(b int) bool {
	if b >= len(s.blocks) || s.blocks[b] == nil {
		return true
	}
	return crcBlock(s.blocks[b]) == s.sums[b]
}

// corrupt flips one stored bit of a block without touching its
// checksum, leaving detectable latent damage. Callers hold s.mu.
func (s *shard) corruptLocked(b int, bit uint) {
	blk := s.blockLocked(b)
	bits := uint(len(blk)) * 64
	bit %= bits
	blk[bit/64] ^= 1 << (bit % 64)
}

// Machine is a simulated parallel disk system.
type Machine struct {
	cfg    Config
	shards []shard // one per disk

	// Batch counters. All atomics, so concurrent batches account
	// exactly with no shared lock; Stats merges them.
	pios        atomic.Int64
	blockReads  atomic.Int64
	blockWrites atomic.Int64
	maxBatch    atomic.Int64
	depthCounts [DepthBuckets]atomic.Int64

	workers atomic.Int32             // worker-pool bound for batch fan-out
	scratch reuse.Pool[batchScratch] // for partitioning large batches

	nextOp atomic.Uint64 // operation-token ID counter; IDs start at 1

	// emitMu serializes event emission: the span stack, the sequence
	// counter, and every hook call. hooked mirrors hook != nil so the
	// untraced fast path is one lock-free load.
	emitMu   sync.Mutex
	hooked   atomic.Bool
	hook     Hook         // guarded by emitMu
	seq      uint64       // guarded by emitMu
	spans    []spanFrame  // guarded by emitMu
	nextSpan uint64       // guarded by emitMu; span ID counter, IDs start at 1
	wall     func() int64 // guarded by emitMu; injected wall clock in nanoseconds, nil = no wall timing
	endSpan  func()       // shared pop closure, allocated once at construction

	// faultMu serializes fault-injector consultation so each Try batch
	// draws its per-access decisions contiguously, in batch order —
	// what keeps a seeded injector's fault sequence reproducible.
	faultMu  sync.Mutex
	injector FaultInjector // guarded by faultMu; nil = faultless machine

	degraded atomic.Bool  // any data-threatening fault since last ClearDegraded
	faults   atomic.Int64 // lifetime fault event count

	// Per-disk health state machine (health.go). healthMu guards the
	// trackers, the thresholds, and the notification callback; the
	// unhealthy counter mirrors how many disks are not Healthy so
	// AllDisksHealthy is a single lock-free load.
	healthMu     sync.Mutex
	health       []diskHealth // guarded by healthMu
	healthNotify func()       // guarded by healthMu
	healthEvents []Event      // guarded by healthMu; transitions awaiting emission
	suspectN     int          // guarded by healthMu
	suspectW     int64        // guarded by healthMu
	unhealthy    atomic.Int64

	// Recovery instrumentation (reported by Health).
	retries      atomic.Int64 // retry batches issued by retry policies
	hedges       atomic.Int64 // hedged duplicate reads issued
	backoffSteps atomic.Int64 // modeled backoff pIOs charged via ChargeSteps
	repairChunks atomic.Int64 // incremental repair/scrub chunks run
	repairRows   atomic.Int64 // bucket rows covered by those chunks
}

// spanFrame is one open span on the machine's stack.
type spanFrame struct {
	id        uint64
	parent    uint64
	path      string // dot-joined tag path, e.g. "insert.probe"
	beginWall int64  // injected-clock nanoseconds at open; 0 without a clock
}

// NewMachine returns a machine with the given configuration. It panics if
// the configuration is invalid; configurations are programmer input, not
// runtime data.
func NewMachine(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{
		cfg:      cfg,
		shards:   make([]shard, cfg.D),
		health:   make([]diskHealth, cfg.D),
		suspectN: DefaultSuspectThreshold,
		suspectW: DefaultSuspectWindow,
	}
	for d := range m.health {
		m.health[d].lastStall = -1
	}
	zeroSum := crcBlock(make([]Word, cfg.B))
	for d := range m.shards {
		m.shards[d].b = cfg.B
		m.shards[d].zeroSum = zeroSum
	}
	m.SetParallelism(cfg.Workers)
	m.scratch.New = func() *batchScratch {
		return &batchScratch{
			counts:  make([]int32, cfg.D),
			offs:    make([]int32, cfg.D),
			touched: make([]int32, 0, cfg.D),
		}
	}
	m.endSpan = func() {
		m.emitMu.Lock()
		n := len(m.spans)
		if n == 0 {
			m.emitMu.Unlock()
			return
		}
		f := m.spans[n-1]
		m.spans = m.spans[:n-1]
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
		}
		if m.wall != nil {
			ev.WallNanos = m.wall() - f.beginWall
		}
		m.hook.Event(ev)
		m.emitMu.Unlock()
	}
	return m
}

// SetHook installs (or, with nil, removes) the machine's event hook.
// Batches issued concurrently with SetHook may or may not reach the new
// hook; attach hooks before starting traffic for a complete trace.
func (m *Machine) SetHook(h Hook) {
	m.emitMu.Lock()
	m.hook = h
	m.hooked.Store(h != nil)
	m.emitMu.Unlock()
}

// SetParallelism bounds the worker pool that fans one batch's block
// copies out across shards: up to n workers (the issuing goroutine and
// idle helpers) serve a batch's touched disks concurrently. n <= 0
// restores the default, min(D, GOMAXPROCS); n == 1 keeps batches on
// their issuing goroutine. Like Config.Workers it never affects
// results, accounting, or traces.
func (m *Machine) SetParallelism(n int) {
	if n <= 0 {
		n = m.cfg.D
		if p := runtime.GOMAXPROCS(0); p < n {
			n = p
		}
		if n < 1 {
			n = 1
		}
	}
	m.workers.Store(int32(n))
}

// noopEndSpan is what Span hands back when no hook is installed, so the
// untraced path allocates nothing.
var noopEndSpan = func() {}

// SetWallClock installs (or, with nil, removes) a wall-clock source, a
// function returning nanoseconds from an arbitrary epoch. When set,
// EventSpanEnd events carry the span's wall-clock duration in
// WallNanos. The machine never reads the clock itself — injecting it
// keeps the measured packages free of wall-clock calls, and serialized
// traces omit the field, so determinism guarantees are unaffected.
func (m *Machine) SetWallClock(now func() int64) {
	m.emitMu.Lock()
	m.wall = now
	m.emitMu.Unlock()
}

// Span opens a span: it pushes tag onto the machine's span stack,
// fires an EventSpanBegin carrying a fresh span ID, the parent's ID,
// the dot-joined path, and the current step counter, and returns the
// function that closes the span (call it when the spanned phase ends,
// typically via defer; closing fires the matching EventSpanEnd).
// Batches fired while the span is open carry the dot-joined path of
// open tags and the innermost span's ID — e.g. a batch inside
// Span("probe") inside Span("insert") is tagged "insert.probe".
//
// With no hook installed, Span is a single branch returning a shared
// no-op. The stack is shared across goroutines, so Span alone cannot
// attribute exactly under concurrency (the returned closure ends the
// innermost open span, not necessarily the one this call opened);
// concurrent operations should carry an Op token and use OpSpan, which
// nests on the op's private stack and is exact.
func (m *Machine) Span(tag string) func() {
	if !m.hooked.Load() {
		return noopEndSpan
	}
	m.emitMu.Lock()
	if m.hook == nil {
		m.emitMu.Unlock()
		return noopEndSpan
	}
	f := spanFrame{path: tag}
	if n := len(m.spans); n > 0 {
		top := m.spans[n-1]
		f.parent = top.id
		f.path = top.path + "." + tag
	}
	m.nextSpan++
	f.id = m.nextSpan
	if m.wall != nil {
		f.beginWall = m.wall()
	}
	m.spans = append(m.spans, f)
	m.seq++
	m.hook.Event(Event{
		Kind:   EventSpanBegin,
		Tag:    f.path,
		Span:   f.id,
		Parent: f.parent,
		Step:   m.pios.Load(),
		Seq:    m.seq,
	})
	m.emitMu.Unlock()
	return m.endSpan
}

// emit fires a batch event, followed by its fault events if any, under
// the emission lock: the events are stamped with consecutive sequence
// numbers and the innermost open span, and reach the hook as one
// contiguous run even when other batches complete concurrently. A
// token-carrying batch (op != nil) is stamped with the op's ID, client,
// and innermost span from the op's private stack; a merged batch
// (shared non-empty) carries the attribution list in Ops. Fault events
// inherit the batch's span and attribution.
func (m *Machine) emit(op *Op, shared []*Op, ev Event, fevents []Event) {
	m.emitMu.Lock()
	if m.hook == nil {
		m.emitMu.Unlock()
		return
	}
	if op != nil && len(op.frames) > 0 {
		top := op.frames[len(op.frames)-1]
		ev.Tag, ev.Span = top.path, top.id
	} else if n := len(m.spans); n > 0 {
		top := m.spans[n-1]
		ev.Tag, ev.Span = top.path, top.id
	}
	if op != nil {
		ev.Op, ev.Client = op.id, op.client
	}
	for _, o := range shared {
		if o != nil {
			ev.Ops = append(ev.Ops, o.id)
		}
	}
	m.seq++
	ev.Seq = m.seq
	m.hook.Event(ev)
	for i := range fevents {
		fevents[i].Span = ev.Span
		fevents[i].Op, fevents[i].Client = ev.Op, ev.Client
		fevents[i].Ops = ev.Ops
		m.seq++
		fevents[i].Seq = m.seq
		m.hook.Event(fevents[i])
	}
	m.emitMu.Unlock()
}

// emitAnnotations fires annotation events (health transitions drained
// outside a Try batch, e.g. from MarkRepairing) under the emission
// lock, stamping each with a sequence number. Unlike emit it attaches
// no op attribution and no span: the transitions were driven by an
// explicit state-machine call, not by a batch. Callers must not hold
// healthMu or emitMu.
func (m *Machine) emitAnnotations(evs []Event) {
	if len(evs) == 0 || !m.hooked.Load() {
		return
	}
	m.emitMu.Lock()
	if m.hook == nil {
		m.emitMu.Unlock()
		return
	}
	for i := range evs {
		m.seq++
		evs[i].Seq = m.seq
		m.hook.Event(evs[i])
	}
	m.emitMu.Unlock()
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// D returns the number of disks.
func (m *Machine) D() int { return m.cfg.D }

// B returns the block capacity in words.
func (m *Machine) B() int { return m.cfg.B }

// Stats returns a snapshot of the I/O counters. Each counter is read
// atomically; a batch completing concurrently is either fully counted
// or not yet counted in totals, never torn within one counter.
func (m *Machine) Stats() Stats {
	var s Stats
	s.ParallelIOs = m.pios.Load()
	s.BlockReads = m.blockReads.Load()
	s.BlockWrites = m.blockWrites.Load()
	s.MaxBatch = int(m.maxBatch.Load())
	for i := range s.DepthCounts {
		s.DepthCounts[i] = m.depthCounts[i].Load()
	}
	return s
}

// ResetStats zeroes the I/O counters (including the per-disk tallies).
// Block contents are unaffected.
func (m *Machine) ResetStats() {
	m.pios.Store(0)
	m.blockReads.Store(0)
	m.blockWrites.Store(0)
	m.maxBatch.Store(0)
	for i := range m.depthCounts {
		m.depthCounts[i].Store(0)
	}
	for d := range m.shards {
		m.shards[d].ios.Store(0)
	}
}

// PerDiskIOs returns the number of block transfers (reads plus writes)
// each disk has served — the skew diagnostic: a striped algorithm keeps
// these nearly equal, while an unbalanced one hammers a few disks.
func (m *Machine) PerDiskIOs() []int64 {
	out := make([]int64, len(m.shards))
	for d := range m.shards {
		out[d] = m.shards[d].ios.Load()
	}
	return out
}

// charge accounts one batch: steps parallel I/Os and one histogram
// entry at the given depth.
func (m *Machine) charge(steps, depth int) {
	m.pios.Add(int64(steps))
	if depth <= 0 {
		return
	}
	for {
		cur := m.maxBatch.Load()
		if int64(depth) <= cur || m.maxBatch.CompareAndSwap(cur, int64(depth)) {
			break
		}
	}
	i := depth - 1
	if i >= DepthBuckets {
		i = DepthBuckets - 1
	}
	m.depthCounts[i].Add(1)
}

// smallBatchMax bounds the batches served inline: below it, a batch is
// executed on its issuing goroutine with one short lock per address and
// its depth computed by allocation-free pairwise counting. Larger
// batches go through the pooled counting-sort partition (and, past
// fanoutMinBlocks, the worker pool).
const smallBatchMax = 32

// fanoutMinBlocks is the smallest batch worth handing to workers: the
// copy work must amortize the goroutine handoffs.
const fanoutMinBlocks = 128

// smallDepth returns the deepest per-disk queue of a small batch by
// pairwise counting — O(n²) in the batch length but allocation-free,
// which is what keeps the common d-address dictionary probe at zero
// bookkeeping allocations.
func smallDepth(addrs []Addr) int {
	depth := 0
	for i, a := range addrs {
		c := 1
		for _, rest := range addrs[i+1:] {
			if rest.Disk == a.Disk {
				c++
			}
		}
		if c > depth {
			depth = c
		}
	}
	return depth
}

// batchScratch is the reusable bookkeeping for partitioning one batch
// by disk: a counting sort over the addresses. counts is all-zero
// whenever the scratch is parked in the pool.
type batchScratch struct {
	counts  []int32 // per-disk address count (length D)
	offs    []int32 // per-disk cursor into order (length D)
	order   []int32 // batch indices grouped by disk, batch order within a disk
	touched []int32 // disks with at least one address, in first-touch order

	// A fanned-out batch, as its workers share it: see runShards.
	perDisk func(d int32)
	cursor  atomic.Int32 // next index of touched to serve
	pending atomic.Int32 // helpers that have not finished
}

// partition groups a batch's indices by disk and returns the deepest
// per-disk queue. Afterwards segment(d) lists the batch indices
// addressed to disk d, in batch order.
func (sc *batchScratch) partition(addrs []Addr) (depth int) {
	if cap(sc.order) < len(addrs) {
		sc.order = make([]int32, len(addrs))
	}
	sc.order = sc.order[:len(addrs)]
	sc.touched = sc.touched[:0]
	for _, a := range addrs {
		if sc.counts[a.Disk] == 0 {
			sc.touched = append(sc.touched, int32(a.Disk))
		}
		sc.counts[a.Disk]++
	}
	off := int32(0)
	for _, d := range sc.touched {
		c := sc.counts[d]
		if int(c) > depth {
			depth = int(c)
		}
		sc.offs[d] = off
		off += c
	}
	for i, a := range addrs {
		sc.order[sc.offs[a.Disk]] = int32(i)
		sc.offs[a.Disk]++
	}
	return depth
}

// segment returns the batch indices partition grouped onto disk d, in
// batch order.
func (sc *batchScratch) segment(d int32) []int32 {
	return sc.order[sc.offs[d]-sc.counts[d] : sc.offs[d]]
}

// release re-zeroes counts (cheaply, via the touched list) and parks
// the scratch back in the pool.
func (m *Machine) release(sc *batchScratch) {
	for _, d := range sc.touched {
		sc.counts[d] = 0
	}
	m.scratch.Put(sc)
}

// cost returns the parallel-I/O steps and deepest per-disk queue of a
// partitioned batch under the machine's model.
func (m *Machine) cost(n, depth int) (int, int) {
	if m.cfg.Model == DiskHead {
		// Any D blocks per step.
		steps := (n + m.cfg.D - 1) / m.cfg.D
		return steps, steps
	}
	return depth, depth
}

// runShards executes perDisk for every touched disk of a partitioned
// batch, fanning out across the worker pool when the batch is large
// enough to pay for the handoffs. Workers pull disks from a shared
// cursor; the issuing goroutine is always one of them, and the others
// are borrowed from the process's helpers.
func (m *Machine) runShards(sc *batchScratch, nBlocks int, perDisk func(d int32)) {
	workers := int(m.workers.Load())
	if workers > len(sc.touched) {
		workers = len(sc.touched)
	}
	if workers <= 1 || nBlocks < fanoutMinBlocks {
		for _, d := range sc.touched {
			perDisk(d)
		}
		return
	}
	helpers.start.Do(startHelpers)
	sc.perDisk = perDisk
	sc.cursor.Store(0)
	for w := 1; w < workers; w++ {
		sc.pending.Add(1)
		select {
		case helpers.jobs <- sc:
		default: // every helper is busy: this goroutine covers its share
			sc.pending.Add(-1)
		}
	}
	sc.drain()
	// Each helper still out is on its last disk, microseconds from done:
	// yield rather than park.
	for sc.pending.Load() != 0 {
		runtime.Gosched()
	}
	sc.perDisk = nil
}

// drain serves touched disks off the batch's cursor until none is left.
func (sc *batchScratch) drain() {
	for {
		t := int(sc.cursor.Add(1)) - 1
		if t >= len(sc.touched) {
			return
		}
		sc.perDisk(sc.touched[t])
	}
}

// helpers are the goroutines fanned-out batches borrow: one per CPU,
// started on first use, each parked on jobs between batches. A batch
// takes only helpers that are idle at that moment, so the set bounds the
// process's extra goroutines however many batches are in flight, and a
// fan-out spawns nothing.
var helpers struct {
	start sync.Once
	jobs  chan *batchScratch
}

func startHelpers() {
	helpers.jobs = make(chan *batchScratch)
	for i := 0; i < runtime.NumCPU(); i++ {
		go func() {
			for sc := range helpers.jobs {
				sc.drain()
				sc.pending.Add(-1)
			}
		}()
	}
}

// checkAddr panics on an address outside the machine. Addresses are
// computed by data-structure code, so an out-of-range address is a bug,
// not an error condition.
func (m *Machine) checkAddr(a Addr) {
	if a.Disk < 0 || a.Disk >= m.cfg.D || a.Block < 0 {
		panic(fmt.Sprintf("pdm: address %v out of range (D=%d)", a, m.cfg.D))
	}
}

// ReadBuf is a caller-owned destination for batch reads: one flat arena
// the machine copies blocks into, plus the per-address views of it that
// a read returns. The zero value is ready to use; a buffer grows to the
// largest batch it has served and from then on serves reads without
// allocating. The views a read returns — and everything that aliases
// them — are valid only until the buffer's next read. A ReadBuf is not
// safe for concurrent use.
type ReadBuf struct {
	arena []Word
	views [][]Word
}

// reset sizes the buffer for n blocks of b words and returns the n
// views, all nil (a Try read leaves the view of a failed access nil).
func (rb *ReadBuf) reset(n, b int) [][]Word {
	if cap(rb.arena) < n*b {
		rb.arena = make([]Word, n*b)
	}
	if cap(rb.views) < n {
		rb.views = make([][]Word, n)
	}
	rb.views = rb.views[:n]
	clear(rb.views)
	return rb.views
}

// readLocked copies block b into slot i of a read buffer (passed as its
// arena and views, so the buffer itself need not escape), the one
// block-copy step behind every batch read. Distinct slots never
// overlap, so workers may fill one buffer concurrently. Callers hold
// s.mu.
func (s *shard) readLocked(b int, arena []Word, views [][]Word, i int32) {
	dst := arena[int(i)*s.b : (int(i)+1)*s.b : (int(i)+1)*s.b]
	copy(dst, s.blockLocked(b))
	views[i] = dst
}

// BatchRead performs one batched read of the given blocks and returns
// their contents, in request order. The returned slices are views of one
// freshly allocated buffer that the caller owns; use BatchReadInto to
// supply (and reuse) the buffer instead. The batch is accounted under
// the machine's cost model. BatchRead is the fault-oblivious path: it
// never consults the fault injector and skips checksum verification —
// use TryBatchRead for fault-aware reads. The batch carries no operation
// token; see BatchReadOp and BatchReadShared for attributed variants.
func (m *Machine) BatchRead(addrs []Addr) [][]Word {
	return m.BatchReadInto(new(ReadBuf), nil, nil, addrs)
}

// BatchReadInto is the one implementation behind BatchRead, BatchReadOp
// and BatchReadShared, reading into the caller's buffer: the returned
// views alias rb and are valid until rb's next read. op is the owning
// token (nil for none), shared the merged-batch attribution list (nil
// for an exclusive batch); accounting and events are those of the
// matching fresh-buffer entry point.
func (m *Machine) BatchReadInto(rb *ReadBuf, op *Op, shared []*Op, addrs []Addr) [][]Word {
	out := rb.reset(len(addrs), m.cfg.B)
	if len(addrs) == 0 {
		return out
	}
	for _, a := range addrs {
		m.checkAddr(a)
	}
	var steps, depth int
	if len(addrs) <= smallBatchMax {
		steps, depth = m.cost(len(addrs), smallDepth(addrs))
		m.charge(steps, depth)
		for i, a := range addrs {
			s := &m.shards[a.Disk]
			s.mu.Lock()
			s.readLocked(a.Block, rb.arena, out, int32(i))
			s.mu.Unlock()
			s.ios.Add(1)
		}
	} else {
		sc := m.scratch.Get()
		steps, depth = m.cost(len(addrs), sc.partition(addrs))
		m.charge(steps, depth)
		arena := rb.arena // captured in rb's place, so a fresh rb stays on the stack
		m.runShards(sc, len(addrs), func(d int32) {
			s := &m.shards[d]
			seg := sc.segment(d)
			s.mu.Lock()
			for _, i := range seg {
				s.readLocked(addrs[i].Block, arena, out, i)
			}
			s.mu.Unlock()
			s.ios.Add(int64(len(seg)))
		})
		m.release(sc)
	}
	m.blockReads.Add(int64(len(addrs)))
	chargeOps(m, op, shared, EventRead, steps, len(addrs), 0)
	if m.hooked.Load() {
		m.emit(op, shared, Event{Kind: EventRead, Addrs: addrs, Steps: steps, Depth: depth}, nil)
	}
	return out
}

// BlockWrite names one block write of a batch.
type BlockWrite struct {
	Addr Addr
	Data []Word // at most B words; shorter data leaves the tail unchanged
}

// BatchWrite performs one batched write. Each write stores len(Data)
// words at the start of the addressed block (the model transfers whole
// blocks; partial Data is a convenience that leaves the block tail as it
// was). The batch is accounted under the machine's cost model. Like all
// writes it maintains the per-block checksums, but it never consults the
// fault injector — use TryBatchWrite for fault-aware writes. The batch
// carries no operation token; see BatchWriteOp for the attributed
// variant.
func (m *Machine) BatchWrite(writes []BlockWrite) {
	m.batchWrite(nil, writes)
}

// batchWrite is the shared implementation behind BatchWrite and
// BatchWriteOp; op is the owning token (nil for none).
func (m *Machine) batchWrite(op *Op, writes []BlockWrite) {
	if len(writes) == 0 {
		return
	}
	addrs := make([]Addr, len(writes))
	for i, w := range writes {
		m.checkAddr(w.Addr)
		if len(w.Data) > m.cfg.B {
			panic(fmt.Sprintf("pdm: write of %d words exceeds block size %d", len(w.Data), m.cfg.B))
		}
		addrs[i] = w.Addr
	}
	var steps, depth int
	if len(writes) <= smallBatchMax {
		steps, depth = m.cost(len(addrs), smallDepth(addrs))
		m.charge(steps, depth)
		for _, w := range writes {
			s := &m.shards[w.Addr.Disk]
			s.mu.Lock()
			blk := s.blockLocked(w.Addr.Block)
			copy(blk, w.Data)
			s.sums[w.Addr.Block] = crcBlock(blk)
			s.mu.Unlock()
			s.ios.Add(1)
		}
	} else {
		sc := m.scratch.Get()
		steps, depth = m.cost(len(addrs), sc.partition(addrs))
		m.charge(steps, depth)
		m.runShards(sc, len(addrs), func(d int32) {
			s := &m.shards[d]
			seg := sc.segment(d)
			s.mu.Lock()
			for _, i := range seg {
				w := &writes[i]
				blk := s.blockLocked(w.Addr.Block)
				copy(blk, w.Data)
				s.sums[w.Addr.Block] = crcBlock(blk)
			}
			s.mu.Unlock()
			s.ios.Add(int64(len(seg)))
		})
		m.release(sc)
	}
	m.blockWrites.Add(int64(len(writes)))
	chargeOps(m, op, nil, EventWrite, steps, len(writes), 0)
	if m.hooked.Load() {
		m.emit(op, nil, Event{Kind: EventWrite, Addrs: addrs, Steps: steps, Depth: depth}, nil)
	}
}

// ReadBlock reads a single block (one parallel I/O).
func (m *Machine) ReadBlock(a Addr) []Word {
	return m.BatchRead([]Addr{a})[0]
}

// WriteBlock writes a single block (one parallel I/O).
func (m *Machine) WriteBlock(a Addr, data []Word) {
	m.BatchWrite([]BlockWrite{{Addr: a, Data: data}})
}

// Peek returns a copy of a block's contents without performing (or
// accounting) any I/O. It exists for tests and invariant checks only.
func (m *Machine) Peek(a Addr) []Word {
	m.checkAddr(a)
	s := &m.shards[a.Disk]
	s.mu.Lock()
	defer s.mu.Unlock()
	src := s.blockLocked(a.Block)
	dst := make([]Word, m.cfg.B)
	copy(dst, src)
	return dst
}

// BlocksAllocated reports how many blocks have been materialized on each
// disk. It is a space-accounting helper; allocation happens lazily on
// first touch.
func (m *Machine) BlocksAllocated() []int {
	out := make([]int, m.cfg.D)
	for d := range m.shards {
		s := &m.shards[d]
		s.mu.Lock()
		out[d] = len(s.blocks)
		s.mu.Unlock()
	}
	return out
}

// TotalBlocks returns the total number of materialized blocks across all
// disks.
func (m *Machine) TotalBlocks() int {
	total := 0
	for _, n := range m.BlocksAllocated() {
		total += n
	}
	return total
}
