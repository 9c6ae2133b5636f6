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
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"

	"pdmdict/internal/pdm/health"
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
	blocks [][]Word // guarded by mu; blocks[b] holds block b's words up to (at least) its last nonzero one, the rest read as zero; nil = never materialized
	sums   []uint32 // guarded by mu; sums[b] is the CRC32 of block b, kept in lockstep with blocks

	ios atomic.Int64 // block transfers served (reads + writes), incl. failed Try accesses

	b       int    // block capacity in words (copied from Config.B)
	zeroSum uint32 // CRC32 of an all-zero block
	pad     []byte // the machine's 8·B zero bytes, which continue a short slot's checksum over its zero tail; never written

	// Last, so ios sits over 64 bytes before the next shard's lock
	// rather than on its cache line: a shard is 128 bytes.
	crc []byte // guarded by mu; 8·B bytes a block is encoded into to be checksummed on a big-endian host, nil until the first
}

// sumLocked returns the checksum of a block whose slot is blk: the CRC
// of the slot's words continued over the zero words past it, which is
// the CRC of the whole B-word block. A big-endian host encodes the slot
// into the shard's buffer, which it allocates on the shard's first
// checksum. Callers hold s.mu.
func (s *shard) sumLocked(blk []Word) uint32 {
	if s.crc == nil && !hostLittleEndian {
		s.crc = make([]byte, 8*s.b)
	}
	return crc32.Update(crcBlock(s.crc, blk), crc32.IEEETable, s.pad[:8*(s.b-len(blk))])
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

// readableLocked returns a block's slot for a read. A never-written
// block is materialized as an empty slot, which reads as all zeros and
// allocates nothing; its checksum slot already holds the all-zero CRC.
// Callers hold s.mu.
func (s *shard) readableLocked(b int) []Word {
	if b >= len(s.blocks) {
		s.growLocked(b + 1)
	}
	if s.blocks[b] == nil {
		s.blocks[b] = []Word{}
	}
	return s.blocks[b]
}

// slotLocked returns block b's slot, to be written in place, holding at
// least n words: a slot too short for them is first moved to a full
// B-word one. Callers hold s.mu.
func (s *shard) slotLocked(b, n int) []Word {
	blk := s.readableLocked(b)
	if len(blk) < n {
		full := make([]Word, s.b)
		copy(full, blk)
		blk = full
		s.blocks[b] = blk
	}
	return blk
}

// usedWords returns the length of blk's prefix up to its last nonzero
// word: the words a slot must hold to keep blk's content.
func usedWords(blk []Word) int {
	n := len(blk)
	for n > 0 && blk[n-1] == 0 {
		n--
	}
	return n
}

// verify reports whether a block's content matches its stored checksum.
// Unmaterialized blocks are trivially valid. Callers hold s.mu.
func (s *shard) verifyLocked(b int) bool {
	if b >= len(s.blocks) || s.blocks[b] == nil {
		return true
	}
	return s.sumLocked(s.blocks[b]) == s.sums[b]
}

// corrupt flips one stored bit of a block without touching its
// checksum, leaving detectable latent damage. Callers hold s.mu.
func (s *shard) corruptLocked(b int, bit uint) {
	bit %= uint(s.b) * 64
	blk := s.slotLocked(b, int(bit/64)+1)
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
	serial uint64        // process-unique, nonzero; names the machine in an Op's lanes

	// emitMu serializes event emission: the span stacks, the sequence
	// counter, and every hook call. hooked mirrors hook != nil so the
	// untraced fast path is one lock-free load.
	emitMu   sync.Mutex
	hooked   atomic.Bool
	hook     Hook                // guarded by emitMu
	seq      uint64              // guarded by emitMu
	spans    []spanFrame         // guarded by emitMu; the shared stack of token-less spans
	stacks   []*spanStack        // guarded by emitMu; idle op span stacks, lent by openSpan
	paths    map[spanPath]string // guarded by emitMu; interned nested span paths
	nextSpan uint64              // guarded by emitMu; span ID counter, IDs start at 1
	wall     func() int64        // guarded by emitMu; injected wall clock in nanoseconds, nil = no wall timing

	// faultMu serializes fault-injector consultation so each Try batch
	// draws its per-access decisions contiguously, in batch order —
	// what keeps a seeded injector's fault sequence reproducible.
	faultMu  sync.Mutex
	injector FaultInjector // guarded by faultMu; nil = faultless machine

	degraded atomic.Bool  // any data-threatening fault since last ClearDegraded
	faults   atomic.Int64 // lifetime fault event count

	tracker *health.Tracker // per-disk health state machine (health.go)

	// Recovery instrumentation (reported by Health).
	retries      atomic.Int64 // retry batches issued by retry policies
	hedges       atomic.Int64 // hedged duplicate reads issued
	backoffSteps atomic.Int64 // modeled backoff pIOs charged via ChargeSteps
	repairChunks atomic.Int64 // incremental repair/scrub chunks run
	repairRows   atomic.Int64 // bucket rows covered by those chunks
}

// spanFrame is one open span on a span stack.
type spanFrame struct {
	id        uint64
	parent    uint64
	path      string // dot-joined tag path, e.g. "insert.probe"
	beginWall int64  // injected-clock nanoseconds at open; 0 without a clock
}

// spanStack is an op's private span stack. Machines keep idle ones for
// reuse, so a hooked operation's spans allocate nothing once warm.
type spanStack struct{ frames []spanFrame }

// spanPath keys an interned nested span path: the parent's path and
// the child's tag.
type spanPath struct{ parent, tag string }

// maxSpanPaths bounds the interned paths per machine. Dictionaries nest
// a handful of declared tags, so the bound only binds on a replay of an
// adversarial trace, whose deeper paths are then joined afresh.
const maxSpanPaths = 1024

// machineSerials numbers the process's machines from 1, so an Op can
// name the machines it charged without pointing at them.
var machineSerials atomic.Uint64

// NewMachine returns a machine with the given configuration. It panics if
// the configuration is invalid; configurations are programmer input, not
// runtime data.
func NewMachine(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{
		cfg:     cfg,
		shards:  make([]shard, cfg.D),
		tracker: health.New(cfg.D),
		serial:  machineSerials.Add(1),
	}
	pad := make([]byte, 8*cfg.B)
	zeroSum := crc32.ChecksumIEEE(pad)
	for d := range m.shards {
		m.shards[d].b = cfg.B
		m.shards[d].zeroSum = zeroSum
		m.shards[d].pad = pad
	}
	m.SetParallelism(cfg.Workers)
	m.scratch.New = func() *batchScratch {
		return &batchScratch{
			m:       m,
			counts:  make([]int32, cfg.D),
			offs:    make([]int32, cfg.D),
			touched: make([]int32, 0, cfg.D),
		}
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

// Tag names a span: one phase of an operation whose batches reports sum
// into one cost bucket. Only this package builds a Tag, so the set
// declared below is closed: a misspelled or ad hoc span tag does not
// compile, and per-tag sums partition the machine's total parallel I/Os.
type Tag struct{ name string }

// String returns the tag as spans and traces spell it.
func (t Tag) String() string { return t.name }

// The span tags: dictionary operations and the phases inside them.
var (
	TagLookup   = Tag{"lookup"}
	TagInsert   = Tag{"insert"}
	TagDelete   = Tag{"delete"}
	TagProbe    = Tag{"probe"}
	TagScan     = Tag{"scan"}
	TagBuild    = Tag{"build"}
	TagBulkload = Tag{"bulkload"}
	TagRehash   = Tag{"rehash"}
	TagRebuild  = Tag{"rebuild"}
	TagRepair   = Tag{"repair"}
	TagScrub    = Tag{"scrub"}
	TagBackoff  = Tag{"backoff"}
)

// ParseTag returns the declared tag spelled name. It rejects every other
// string, including dot-joined span paths ("insert.probe") and the
// fault.*, health.* and alert.* event tags, which are never span tags.
func ParseTag(name string) (Tag, bool) {
	for _, t := range [...]Tag{TagLookup, TagInsert, TagDelete, TagProbe, TagScan, TagBuild,
		TagBulkload, TagRehash, TagRebuild, TagRepair, TagScrub, TagBackoff} {
		if t.name == name {
			return t, true
		}
	}
	return Tag{}, false
}

// SpanEnd closes the span that Span or OpSpan opened; call End when
// the spanned phase ends, typically as defer m.Span(tag).End(). It is a
// value, so opening and closing a span allocates nothing. The zero
// SpanEnd, which both return when no hook is installed, closes nothing.
type SpanEnd struct {
	m  *Machine
	op *Op
}

// End closes the span, firing its EventSpanEnd.
func (s SpanEnd) End() {
	if s.m != nil {
		s.m.closeSpan(s.op)
	}
}

// Span opens a span: it pushes tag onto the machine's span stack,
// fires an EventSpanBegin carrying a fresh span ID, the parent's ID,
// the dot-joined path, and the current step counter, and returns the
// SpanEnd that closes the span (closing fires the matching
// EventSpanEnd). Batches fired while the span is open carry the
// dot-joined path of open tags and the innermost span's ID — e.g. a
// batch inside Span(TagProbe) inside Span(TagInsert) is tagged
// "insert.probe".
//
// With no hook installed, Span is a single branch returning the zero
// SpanEnd. The stack is shared across goroutines, so Span alone cannot
// attribute exactly under concurrency (the returned SpanEnd ends the
// innermost open span, not necessarily the one this call opened);
// concurrent operations should carry an Op token and use OpSpan, which
// nests on the op's private stack and is exact.
func (m *Machine) Span(tag Tag) SpanEnd {
	if !m.openSpan(nil, tag) {
		return SpanEnd{}
	}
	return SpanEnd{m: m}
}

// openSpan is Span and OpSpan: it pushes tag onto op's private span
// stack, or onto the machine's shared one when op is nil, and fires the
// EventSpanBegin. An op without an open span borrows an idle stack from
// the machine (closeSpan hands it back), so the machine holds at most
// as many stacks as hooked operations were ever open at once. A
// token-carrying span is stamped with the op's ID and client, and a
// root one with its key count. Without a hook it does nothing and
// reports false.
func (m *Machine) openSpan(op *Op, tag Tag) bool {
	if !m.hooked.Load() {
		return false
	}
	m.emitMu.Lock()
	if m.hook == nil {
		m.emitMu.Unlock()
		return false
	}
	stack := &m.spans
	if op != nil {
		if op.stack == nil {
			op.stack = m.borrowStackLocked()
		}
		stack = &op.stack.frames
	}
	f := spanFrame{path: tag.name}
	if n := len(*stack); n > 0 {
		top := (*stack)[n-1]
		f.parent = top.id
		f.path = m.joinPathLocked(top.path, tag.name)
	}
	m.nextSpan++
	f.id = m.nextSpan
	if m.wall != nil {
		f.beginWall = m.wall()
	}
	*stack = append(*stack, f)
	ev := Event{Kind: EventSpanBegin, Tag: f.path, Span: f.id, Parent: f.parent, Step: m.pios.Load()}
	if op != nil {
		ev.Op, ev.Client = op.id, op.client
		if f.parent == 0 {
			ev.Keys = op.keys
		}
	}
	m.seq++
	ev.Seq = m.seq
	m.hook.Event(ev)
	m.emitMu.Unlock()
	return true
}

// closeSpan pops the innermost frame of the stack openSpan pushes onto
// for op and fires the matching EventSpanEnd. Spans on an op's stack are
// strictly nested on the owning goroutine, so that frame is the one the
// matching OpSpan call pushed. Popping an op's root span hands its
// stack to this machine's idle list — the machine that lent it, unless
// the op's spans straddle two machines.
func (m *Machine) closeSpan(op *Op) {
	m.emitMu.Lock()
	stack := &m.spans
	if op != nil {
		if op.stack == nil {
			m.emitMu.Unlock()
			return
		}
		stack = &op.stack.frames
	}
	n := len(*stack)
	if n == 0 {
		m.emitMu.Unlock()
		return
	}
	f := (*stack)[n-1]
	*stack = (*stack)[:n-1]
	if op != nil && n == 1 {
		m.stacks = append(m.stacks, op.stack)
		op.stack = nil
	}
	if m.hook == nil {
		m.emitMu.Unlock()
		return
	}
	m.seq++
	ev := Event{Kind: EventSpanEnd, Tag: f.path, Span: f.id, Parent: f.parent, Step: m.pios.Load(), Seq: m.seq}
	if op != nil {
		ev.Op, ev.Client = op.id, op.client
	}
	if m.wall != nil {
		ev.WallNanos = m.wall() - f.beginWall
	}
	m.hook.Event(ev)
	m.emitMu.Unlock()
}

// borrowStackLocked hands out an idle span stack, or a fresh one when none
// is idle. The caller holds emitMu.
func (m *Machine) borrowStackLocked() *spanStack {
	n := len(m.stacks)
	if n == 0 {
		return new(spanStack)
	}
	s := m.stacks[n-1]
	m.stacks[n-1] = nil
	m.stacks = m.stacks[:n-1]
	return s
}

// IdleSpanStacks returns how many op span stacks the machine keeps for
// reuse: at most the number of hooked operations it has seen open at
// once (see openSpan).
func (m *Machine) IdleSpanStacks() int {
	m.emitMu.Lock()
	defer m.emitMu.Unlock()
	return len(m.stacks)
}

// joinPathLocked returns parent + "." + tag, interned so a nested span costs
// no string allocation once its path has been seen. The caller holds
// emitMu.
func (m *Machine) joinPathLocked(parent, tag string) string {
	k := spanPath{parent, tag}
	if p, ok := m.paths[k]; ok {
		return p
	}
	p := parent + "." + tag
	if m.paths == nil {
		m.paths = make(map[spanPath]string)
	}
	if len(m.paths) < maxSpanPaths {
		m.paths[k] = p
	}
	return p
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
	if op != nil && op.stack != nil {
		top := op.stack.frames[len(op.stack.frames)-1]
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
	addrs   []Addr  // a write batch's addresses, for the cost and the event

	// A partitioned batch, as its workers share it (see runShards): the
	// per-disk body, readDisk or writeDisk, and what it serves — a
	// read's addresses and destination buffer, or a write's blocks.
	m       *Machine
	perDisk func(sc *batchScratch, d int32)
	reads   []Addr
	arena   []Word
	views   [][]Word
	writes  []BlockWrite
	cursor  atomic.Int32 // next index of touched to serve
	pending atomic.Int32 // helpers that have not finished

	// A batch's fault state: whether it is fault-aware (verify), its
	// fault draws (empty unless a fault-aware batch met an injector),
	// per-access outcomes, their health classification and the
	// transitions it caused, and under a hook its fault and health
	// events. Last, so that cursor, which every worker bumps, keeps its
	// own cache line apart from perDisk and touched, which every worker
	// reads.
	verify   bool
	faults   []Fault
	res      []error
	accesses []health.Access
	trans    []health.Transition
	fevents  []Event
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

// release re-zeroes counts (cheaply, via the touched list), empties the
// fault draws, drops the events that point into the caller's batch, and
// parks the scratch back in the pool.
func (m *Machine) release(sc *batchScratch) {
	for _, d := range sc.touched {
		sc.counts[d] = 0
	}
	sc.faults = sc.faults[:0]
	clear(sc.fevents)
	sc.fevents = sc.fevents[:0]
	sc.reads, sc.arena, sc.views, sc.writes = nil, nil, nil, nil // the caller's, not the pool's
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
// are borrowed from the process's helpers. perDisk is a plain function
// that takes its state from sc, so a batch allocates no closure.
func (m *Machine) runShards(sc *batchScratch, nBlocks int, perDisk func(sc *batchScratch, d int32)) {
	workers := int(m.workers.Load())
	if workers > len(sc.touched) {
		workers = len(sc.touched)
	}
	if workers <= 1 || nBlocks < fanoutMinBlocks {
		for _, d := range sc.touched {
			perDisk(sc, d)
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
		sc.perDisk(sc, sc.touched[t])
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
// the machine copies blocks into, the per-address views of it that a
// read returns, and the *BatchError a failed Try read returns. The zero
// value is ready to use; a buffer grows to the largest batch it has
// served, with an eighth to spare, and from then on serves reads without
// allocating. The views and the error a read returns — and everything
// that aliases them — are valid only until the buffer's next read. A
// ReadBuf is not safe for concurrent use.
type ReadBuf struct {
	arena []Word
	views [][]Word
	err   BatchError
}

// reset sizes the buffer for n blocks of b words and returns the n
// views, all nil (a Try read leaves the view of a failed access nil). It
// also empties the previous read's error. A buffer that must grow takes
// an eighth more than n: a merged batch's count of distinct blocks
// varies from call to call, and growing to each new maximum exactly
// reallocated the arena, over a megabyte for a 64-key batch, at every
// record.
func (rb *ReadBuf) reset(n, b int) [][]Word {
	rb.err.Blocks = rb.err.Blocks[:0]
	if cap(rb.arena) < n*b || cap(rb.views) < n {
		grown := n + n/8
		rb.arena = make([]Word, grown*b)
		rb.views = make([][]Word, n, grown)
	}
	rb.views = rb.views[:n]
	clear(rb.views)
	return rb.views
}

// readLocked serves one access of a batch read: unless fault f turns
// it away, it applies a corruption fault, verifies the block against its
// checksum when verify is set, and copies the block into slot i of a
// read buffer (passed as its arena and views, so the buffer itself need
// not escape). It is the one block-copy step behind every batch read.
// Distinct slots never overlap, so workers may fill one buffer
// concurrently. Callers hold s.mu.
func (s *shard) readLocked(b int, f Fault, verify bool, arena []Word, views [][]Word, i int32) error {
	if err := denied(f); err != nil {
		return err
	}
	if f.Kind == FaultCorrupt {
		s.corruptLocked(b, f.Bit)
	}
	if verify && !s.verifyLocked(b) {
		return ErrChecksum
	}
	dst := arena[int(i)*s.b : (int(i)+1)*s.b : (int(i)+1)*s.b]
	n := copy(dst, s.readableLocked(b))
	clear(dst[n:]) // the words past a short slot; the arena holds an earlier read's
	views[i] = dst
	return nil
}

// BatchRead performs one batched read of the given blocks and returns
// their contents, in request order. The returned slices are views of one
// freshly allocated buffer that the caller owns; use BatchReadInto to
// supply (and reuse) the buffer instead. The batch is accounted under
// the machine's cost model. BatchRead is the fault-oblivious contract: it
// never consults the fault injector and skips checksum verification —
// use TryBatchRead for fault-aware reads. The batch carries no operation
// token; see BatchReadOp and BatchReadShared for attributed variants.
func (m *Machine) BatchRead(addrs []Addr) [][]Word {
	return m.BatchReadInto(new(ReadBuf), nil, nil, addrs)
}

// BatchReadInto is BatchRead, BatchReadOp and BatchReadShared reading
// into the caller's buffer: the returned views alias rb and are valid
// until rb's next read. op is the owning token (nil for none), shared
// the merged-batch attribution list (nil for an exclusive batch);
// accounting and events are those of the matching fresh-buffer entry
// point. It is batchRead in its fault-oblivious mode.
func (m *Machine) BatchReadInto(rb *ReadBuf, op *Op, shared []*Op, addrs []Addr) [][]Word {
	out, _ := m.batchRead(rb, op, shared, addrs, false)
	return out
}

// batchRead is the one batch read body, fault-aware when try is set
// (TryBatchReadInto) and fault-oblivious otherwise (BatchReadInto). A
// fault-aware read draws a fault per access, verifies checksums, and
// feeds finishTry's fault, degraded and health bookkeeping; an oblivious
// read does none of that, so it cannot fail, and a small one takes no
// pooled scratch. Both account and emit the batch the same way.
func (m *Machine) batchRead(rb *ReadBuf, op *Op, shared []*Op, addrs []Addr, try bool) ([][]Word, error) {
	out := rb.reset(len(addrs), m.cfg.B)
	if len(addrs) == 0 {
		return out, nil
	}
	for _, a := range addrs {
		m.checkAddr(a)
	}
	var sc *batchScratch
	if try || len(addrs) > smallBatchMax {
		sc = m.scratch.Get()
		sc.verify = try
	}
	var fs []Fault
	var res []error // per-access outcomes; nil when oblivious, as no access can fail
	if try {
		fs = m.drawFaults(sc, EventRead, addrs)
		res = sc.outcomes(len(addrs))
	}
	var steps, depth int
	if len(addrs) <= smallBatchMax {
		steps, depth = m.cost(len(addrs), smallDepth(addrs))
		for i, a := range addrs {
			s := &m.shards[a.Disk]
			s.mu.Lock()
			err := s.readLocked(a.Block, faultAt(fs, i), try, rb.arena, out, int32(i))
			s.mu.Unlock()
			s.ios.Add(1)
			if err != nil {
				res[i] = err
			}
		}
	} else {
		steps, depth = m.cost(len(addrs), sc.partition(addrs))
		sc.reads, sc.arena, sc.views = addrs, rb.arena, out // rb's fields, so a fresh rb stays on the stack
		m.runShards(sc, len(addrs), readDisk)
	}
	hooked := m.hooked.Load()
	var nfaults, extra int
	var fevents []Event
	if try {
		rb.err.Blocks, nfaults, extra = m.finishTry(sc, hooked, EventRead, addrs, fs, res, rb.err.Blocks)
		fevents = sc.fevents
	}
	m.charge(steps+extra, depth)
	m.blockReads.Add(int64(len(addrs)))
	chargeOps(m, op, shared, EventRead, steps+extra, len(addrs), nfaults)
	if hooked {
		m.emit(op, shared, Event{Kind: EventRead, Addrs: addrs, Steps: steps, Depth: depth}, fevents)
	}
	if sc != nil {
		m.release(sc)
	}
	if len(rb.err.Blocks) > 0 {
		return out, &rb.err
	}
	return out, nil
}

// readDisk serves one disk's share of a partitioned read: runShards'
// per-disk body for batchRead.
func readDisk(sc *batchScratch, d int32) {
	s := &sc.m.shards[d]
	seg := sc.segment(d)
	s.mu.Lock()
	for _, i := range seg {
		if err := s.readLocked(sc.reads[i].Block, faultAt(sc.faults, int(i)), sc.verify, sc.arena, sc.views, i); err != nil {
			sc.res[i] = err
		}
	}
	s.mu.Unlock()
	s.ios.Add(int64(len(seg)))
}

// BlockWrite names one block write of a batch. The machine reads Data
// only during the write call, copying its words up to the last nonzero
// one into the shard, so the caller owns it again on return and may
// reuse or mutate it.
type BlockWrite struct {
	Addr Addr
	Data []Word // at most B words; shorter data leaves the tail unchanged
}

// writeLocked serves one access of a batch write: unless fault f turns
// it away, it stores w's data and the block's new checksum, then applies
// a corruption fault on top. It is the one step that stores write data
// into a shard. Callers hold s.mu.
func (s *shard) writeLocked(w *BlockWrite, f Fault) error {
	if err := denied(f); err != nil {
		return err
	}
	// A slot shorter than Data need hold only Data's words up to its
	// last nonzero one.
	need := len(w.Data)
	if need > len(s.readableLocked(w.Addr.Block)) {
		need = usedWords(w.Data)
	}
	blk := s.slotLocked(w.Addr.Block, need)
	copy(blk, w.Data)
	s.sums[w.Addr.Block] = s.sumLocked(blk)
	if f.Kind == FaultCorrupt {
		s.corruptLocked(w.Addr.Block, f.Bit)
	}
	return nil
}

// writeDisk serves one disk's share of a partitioned write: runShards'
// per-disk body for batchWrite.
func writeDisk(sc *batchScratch, d int32) {
	s := &sc.m.shards[d]
	seg := sc.segment(d)
	s.mu.Lock()
	for _, i := range seg {
		if err := s.writeLocked(&sc.writes[i], faultAt(sc.faults, int(i))); err != nil {
			sc.res[i] = err
		}
	}
	s.mu.Unlock()
	s.ios.Add(int64(len(seg)))
}

// BatchWrite performs one batched write. Each write stores len(Data)
// words at the start of the addressed block (the model transfers whole
// blocks; partial Data is a convenience that leaves the block tail as it
// was). Data is read only during the call — the blocks are copied into
// the shards — so the caller may reuse every Data slice once BatchWrite
// returns. The batch is accounted under the machine's cost model. Like
// all writes it maintains the per-block checksums, but it never consults
// the fault injector — use TryBatchWriteOp for fault-aware writes. The
// batch carries no operation token; see BatchWriteOp for the attributed
// variant.
func (m *Machine) BatchWrite(writes []BlockWrite) {
	m.batchWrite(nil, writes, false)
}

// batchWrite is the one batch write body, fault-aware when try is set
// (TryBatchWriteOp) and fault-oblivious otherwise (BatchWrite,
// BatchWriteOp), with batchRead's split between the two modes; op is the
// owning token (nil for none). The address list lives in a pooled
// scratch: like a read's, it is only promised to hooks for the duration
// of the call. A write that succeeds allocates nothing; a failed one has
// no caller buffer to hold its error and allocates it.
func (m *Machine) batchWrite(op *Op, writes []BlockWrite, try bool) error {
	if len(writes) == 0 {
		return nil
	}
	sc := m.scratch.Get()
	addrs := sc.addrs[:0]
	for _, w := range writes {
		m.checkAddr(w.Addr)
		if len(w.Data) > m.cfg.B {
			panic(fmt.Sprintf("pdm: write of %d words exceeds block size %d", len(w.Data), m.cfg.B))
		}
		addrs = append(addrs, w.Addr)
	}
	sc.addrs = addrs
	var fs []Fault
	var res []error // as in batchRead
	if try {
		fs = m.drawFaults(sc, EventWrite, addrs)
		res = sc.outcomes(len(writes))
	}
	var steps, depth int
	if len(writes) <= smallBatchMax {
		steps, depth = m.cost(len(addrs), smallDepth(addrs))
		for i := range writes {
			s := &m.shards[writes[i].Addr.Disk]
			s.mu.Lock()
			err := s.writeLocked(&writes[i], faultAt(fs, i))
			s.mu.Unlock()
			s.ios.Add(1)
			if err != nil {
				res[i] = err
			}
		}
	} else {
		steps, depth = m.cost(len(addrs), sc.partition(addrs))
		sc.writes = writes
		m.runShards(sc, len(addrs), writeDisk)
	}
	hooked := m.hooked.Load()
	var berrs []BlockError
	var nfaults, extra int
	var fevents []Event
	if try {
		berrs, nfaults, extra = m.finishTry(sc, hooked, EventWrite, addrs, fs, res, nil)
		fevents = sc.fevents
	}
	m.charge(steps+extra, depth)
	m.blockWrites.Add(int64(len(writes)))
	chargeOps(m, op, nil, EventWrite, steps+extra, len(writes), nfaults)
	if hooked {
		m.emit(op, nil, Event{Kind: EventWrite, Addrs: addrs, Steps: steps, Depth: depth}, fevents)
	}
	m.release(sc)
	if len(berrs) > 0 {
		return &BatchError{Blocks: berrs}
	}
	return nil
}

// ReadBlock reads a single block (one parallel I/O).
func (m *Machine) ReadBlock(a Addr) []Word {
	return m.BatchRead([]Addr{a})[0]
}

// WriteBlock writes a single block (one parallel I/O).
func (m *Machine) WriteBlock(a Addr, data []Word) {
	m.BatchWrite([]BlockWrite{{Addr: a, Data: data}})
}

// Peek returns a copy of a block's contents, all B words of it, without
// performing (or accounting) any I/O: the words the block's slot holds,
// then zeros. It exists for tests and invariant checks only. A
// never-written block reads as zeros and stays unmaterialized, so a Peek
// changes neither the stats nor BlocksAllocated.
func (m *Machine) Peek(a Addr) []Word {
	m.checkAddr(a)
	s := &m.shards[a.Disk]
	dst := make([]Word, m.cfg.B)
	s.mu.Lock()
	if a.Block < len(s.blocks) {
		copy(dst, s.blocks[a.Block])
	}
	s.mu.Unlock()
	return dst
}

// SlotWords reports how many of block a's words its slot holds in host
// memory: 0 for a never-written block, B for a written one until Compact
// or a snapshot load shrinks it to its used words. Like Peek it performs
// no I/O and exists for tests and invariant checks only.
func (m *Machine) SlotWords(a Addr) int {
	m.checkAddr(a)
	s := &m.shards[a.Disk]
	s.mu.Lock()
	defer s.mu.Unlock()
	if a.Block < len(s.blocks) {
		return len(s.blocks[a.Block])
	}
	return 0
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

// Compact moves every materialized block to a slot of exactly its used
// words, its words up to the last nonzero one, so a machine whose blocks
// are mostly empty holds only their data in host memory. It is host-only
// housekeeping, for after a whole structure is built: it charges no I/O,
// emits no event and leaves Stats, BlocksAllocated, checksums and every
// block's content as they were. A later write that outgrows a compacted
// slot moves its block back to a full one.
func (m *Machine) Compact() {
	for d := range m.shards {
		s := &m.shards[d]
		s.mu.Lock()
		for b, blk := range s.blocks {
			if n := usedWords(blk); n < len(blk) {
				s.blocks[b] = make([]Word, n)
				copy(s.blocks[b], blk)
			}
		}
		s.mu.Unlock()
	}
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
