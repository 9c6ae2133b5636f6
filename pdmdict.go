// Package pdmdict is a Go implementation of the deterministic
// dictionaries for the parallel disk model from
//
//	M. Berger, E. R. Hansen, R. Pagh, M. Pǎtraşcu, M. Ružić,
//	P. Tiedemann. "Deterministic load balancing and dictionaries in
//	the parallel disk model." SPAA 2006.
//
// The package exposes the paper's structures over a simulated parallel
// disk machine (D disks × blocks of B words, costs counted in parallel
// I/Os):
//
//   - New / Dict — the fully dynamic deterministic dictionary:
//     worst-case constant I/Os per operation, unbounded growth via
//     global rebuilding, deletions. This is the flagship structure.
//   - NewBasic / Basic — Section 4.1: one-probe lookups (1 parallel
//     I/O), two-probe updates, satellite bandwidth O(B·D/log n) in the
//     k = d/2 configuration.
//   - BuildStatic / Static — Theorem 6: the one-probe static dictionary
//     with construction cost proportional to sorting.
//   - NewDynamic / Dynamic — Theorem 7: bounded-capacity dynamic
//     dictionary, 1 I/O unsuccessful searches, 1+ɛ average successful
//     searches, 2+ɛ average updates.
//
// The randomized baselines the paper compares against (Figure 1) are
// also provided: NewHashTable, NewCuckoo, NewTwoLevel, and NewBTree.
// Everything is deterministic given the Options' Seed; there is no
// global randomness.
package pdmdict

import (
	"fmt"

	"pdmdict/internal/btree"
	"pdmdict/internal/bucket"
	"pdmdict/internal/core"
	"pdmdict/internal/hashing"
	"pdmdict/internal/heal"
	"pdmdict/internal/obs"
	"pdmdict/internal/pdm"
)

// Word is one data item of the parallel disk model — "sufficiently
// large to hold a pointer value or a key value". Keys and satellite
// data are words.
type Word = uint64

// Record pairs a key with its satellite data.
type Record struct {
	Key Word
	Sat []Word
}

// IOStats summarizes a structure's disk traffic.
type IOStats struct {
	// ParallelIOs counts parallel I/O steps, the model's cost measure.
	ParallelIOs int64
	// BlockReads and BlockWrites count individual block transfers.
	BlockReads  int64
	BlockWrites int64
}

func fromPDM(s pdm.Stats) IOStats {
	return IOStats{ParallelIOs: s.ParallelIOs, BlockReads: s.BlockReads, BlockWrites: s.BlockWrites}
}

// Dictionary is the interface every structure in this package satisfies.
type Dictionary interface {
	// Lookup returns a copy of key's satellite data and whether the key
	// is present.
	Lookup(key Word) ([]Word, bool)
	// Contains reports whether key is present.
	Contains(key Word) bool
	// Insert stores (key, sat), replacing any existing satellite. sat
	// is copied before Insert returns and never retained, so the caller
	// may reuse it at once.
	Insert(key Word, sat []Word) error
	// Delete removes key, reporting whether it was present.
	Delete(key Word) bool
	// Len returns the number of stored keys.
	Len() int
	// IOStats returns the accumulated disk traffic.
	IOStats() IOStats
	// SetHook attaches an observability hook to the structure's
	// machine(s); a nil hook detaches. Sinks and metrics collectors live
	// in internal/obs.
	SetHook(IOHook)
}

// Options configures a dictionary.
type Options struct {
	// Capacity is the (initial) maximum number of keys. Required.
	Capacity int
	// SatWords is the satellite size per key, in words.
	SatWords int
	// Degree is the expander degree d. Structures with a membership
	// sub-dictionary (Dict, Dynamic, Static case (a)) occupy 2d disks;
	// the others occupy d. 0 defaults to 20.
	Degree int
	// BlockSize is B in words; 0 defaults to 64.
	BlockSize int
	// Epsilon is the Theorem 7 performance parameter for Dynamic and
	// Dict; 0 defaults to 0.5.
	Epsilon float64
	// Universe is the key universe size u; 0 defaults to 2^63.
	Universe uint64
	// Seed makes the whole structure deterministic; equal seeds give
	// bit-identical behaviour.
	Seed uint64
}

func (o Options) degree() int {
	if o.Degree == 0 {
		return 20
	}
	return o.Degree
}

func (o Options) blockSize() int {
	if o.BlockSize == 0 {
		return 64
	}
	return o.BlockSize
}

// machineStats wraps a machine for the IOStats methods.
type machineStats struct{ m *pdm.Machine }

// IOStats returns the accumulated disk traffic.
func (s machineStats) IOStats() IOStats { return fromPDM(s.m.Stats()) }

// ResetIOStats zeroes the counters (data is untouched).
func (s machineStats) ResetIOStats() { s.m.ResetStats() }

// Machine returns the underlying simulated machine, for advanced
// instrumentation.
func (s machineStats) Machine() *pdm.Machine { return s.m }

// SetHook attaches an observability hook to the underlying machine; a
// nil hook detaches (the default, with near-zero overhead). Sinks and
// metrics collectors live in internal/obs.
func (s machineStats) SetHook(h IOHook) { s.m.SetHook(h) }

// SetFaultInjector attaches a fault injector to the underlying machine;
// nil detaches (the default). Fault events flow through the hook under
// "fault.*" tags.
func (s machineStats) SetFaultInjector(fi FaultInjector) { s.m.SetFaultInjector(fi) }

// Degraded reports whether the machine has observed a data-threatening
// fault (fail-stop, transient, corruption, or checksum mismatch — not a
// stall) since the flag was last cleared, or any disk is currently not
// Healthy. It is a derived view of the per-disk health state machine;
// Health gives the full picture.
func (s machineStats) Degraded() bool { return s.m.Degraded() }

// ClearDegraded resets the degraded flag and returns every disk to the
// Healthy state, e.g. after a successful repair and clean scrub.
func (s machineStats) ClearDegraded() { s.m.ClearDegraded() }

// Health returns a snapshot of the machine's per-disk health state
// machine (Healthy → Suspect → Failed → Repairing → Healthy) and its
// recovery counters (retries, hedged reads, modeled backoff steps,
// repair chunks). All transitions are driven by the deterministic
// parallel-I/O step counter, never wall time.
func (s machineStats) Health() HealthReport { return s.m.Health() }

// DiskState returns one disk's current health state.
func (s machineStats) DiskState(disk int) HealthState { return s.m.DiskState(disk) }

// FaultCount returns the number of fault events observed, stalls
// included.
func (s machineStats) FaultCount() int64 { return s.m.FaultCount() }

// Addr names one block: a disk index and a block index on that disk.
type Addr = pdm.Addr

// IOEvent is one traced batch: op kind, span tag, addresses, and cost.
// The Addrs slice is only valid during the hook call — sinks that
// retain events must copy it.
type IOEvent = pdm.Event

// IOHook receives one IOEvent per non-empty batch a machine executes.
// Implementations must be safe for concurrent use and must not call
// back into the machine's batch methods.
type IOHook = pdm.Hook

// OpCtx is an explicit operation token: a machine-unique operation ID,
// the issuing client's ID, and the name of the operation's root tag.
// Threading a token through the *Ctx entry points (LookupCtx,
// InsertCtx, ...) stamps every batch, fault, and span event the
// operation causes with the token and charges the operation's exact
// parallel I/O cost to it — per-operation accounting that stays exact
// under arbitrary concurrency, where the legacy span-stack attribution
// is only approximate. The plain entry points mint an anonymous token
// (client 0) internally, so every operation on Dict, Basic, Dynamic,
// OneProbe and the wrappers over them is accounted either way. Direct,
// Static and the baselines mint no tokens.
//
// A token a plain entry point mints for itself is recycled once the call
// returns, so a warm call allocates nothing for it. A token minted with
// MintOp is the caller's and is never recycled: mint one per logical
// operation and do not reuse it; its counters (Op.Steps and friends)
// can be read at any time, including while the operation is in flight
// and after it returns.
type OpCtx = obs.OpCtx

// BatchLookuper is satisfied by the structures that can answer many
// lookups in merged read rounds (Dict, Basic, Dynamic, OneProbe,
// Scheduled, and SyncDict): the keys' probe addresses are de-duplicated
// and fetched in one BatchRead per round, so b concurrent queries cost
// the deepest per-disk queue instead of b sequential probes. Use a type
// assertion when holding a Dictionary:
//
//	if bl, ok := dict.(BatchLookuper); ok { sats, oks := bl.LookupBatch(keys) }
type BatchLookuper interface {
	// LookupBatch returns, positionally aligned with keys, a copy of
	// each key's satellite data and whether it is present.
	LookupBatch(keys []Word) ([][]Word, []bool)
}

// ---------------------------------------------------------------------
// The token-carrying surface.

// opCore is the core structure behind a front: its operation bodies,
// each charged to the token it is handed. It is one of *core.BasicDict,
// *core.DynamicDict, *core.OneProbeDict and *core.Dict; InsertOp is
// here for the scheduler, and InsertCtx calls the concrete structure.
type opCore interface {
	LookupOp(op *pdm.Op, key Word) ([]Word, bool)
	LookupBatchInto(op *pdm.Op, shared []*pdm.Op, keys []Word, sats [][]Word, oks []bool)
	InsertOp(op *pdm.Op, key Word, sat []Word) error
	DeleteOp(op *pdm.Op, key Word) bool
	Len() int
	SatWords() int
}

// front holds the public entry points Dict, Basic, Dynamic and OneProbe
// share. It is the package's one minting site: each plain entry point
// mints one client-0 token and calls its Ctx form, and each Ctx form
// hands the token to the core, so every public operation is charged
// exactly its own batches. Each structure's type doc states the costs.
type front struct {
	core  opCore
	mint  func(client, keys int) *pdm.Op // the structure's token counter
	steps func() int64                   // its step clock, for NewScheduled
}

// machineFront is the front of a structure on the single machine m,
// which mints its tokens and keeps its step clock.
func machineFront(c opCore, m *pdm.Machine) front { return front{c, m.NewOp, m.StepCount} }

// asFront hands the wrappers the front a structure embeds.
func (f *front) asFront() *front { return f }

// MintOp mints an operation token (see OpCtx) for one logical operation
// issued by client over keys keys, carrying the given root tag name
// (pdm.TagLookup.String(), ...). IDs come from the structure's own counter, so equal workloads
// mint equal IDs and traces stay deterministic.
func (f *front) MintOp(client, keys int, tag string) OpCtx {
	return OpCtx{Op: f.mint(client, keys), Tag: tag}
}

// Lookup returns a copy of key's satellite data and whether it is present.
func (f *front) Lookup(key Word) ([]Word, bool) {
	c := f.MintOp(0, 1, pdm.TagLookup.String())
	sat, ok := f.LookupCtx(c, key)
	pdm.ReleaseOp(c.Op)
	return sat, ok
}

// LookupCtx is Lookup attributed to the operation token c (see OpCtx).
func (f *front) LookupCtx(c OpCtx, key Word) ([]Word, bool) { return f.core.LookupOp(c.Op, key) }

// Contains reports whether key is present.
func (f *front) Contains(key Word) bool {
	_, ok := f.Lookup(key)
	return ok
}

// Insert stores (key, sat), replacing any existing satellite. sat is
// copied before Insert returns and never retained.
func (f *front) Insert(key Word, sat []Word) error {
	c := f.MintOp(0, 1, pdm.TagInsert.String())
	err := f.InsertCtx(c, key, sat)
	pdm.ReleaseOp(c.Op)
	return err
}

// InsertCtx is Insert attributed to the operation token c. It calls the
// concrete structure, not an interface method, so the compiler can see
// that sat does not outlive the call: a caller's stack satellite stays
// on its stack.
func (f *front) InsertCtx(c OpCtx, key Word, sat []Word) error {
	switch d := f.core.(type) {
	case *core.Dict:
		return d.InsertOp(c.Op, key, sat)
	case *core.DynamicDict:
		return d.InsertOp(c.Op, key, sat)
	case *core.OneProbeDict:
		return d.InsertOp(c.Op, key, sat)
	case *core.BasicDict:
		return d.InsertOp(c.Op, key, sat)
	}
	panic(fmt.Sprintf("pdmdict: front over %T has no insert path", f.core))
}

// Delete removes key, reporting whether it was present.
func (f *front) Delete(key Word) bool {
	c := f.MintOp(0, 1, pdm.TagDelete.String())
	present := f.DeleteCtx(c, key)
	pdm.ReleaseOp(c.Op)
	return present
}

// DeleteCtx is Delete attributed to the operation token c.
func (f *front) DeleteCtx(c OpCtx, key Word) bool { return f.core.DeleteOp(c.Op, key) }

// LookupBatch resolves many keys as one operation whose probes share
// merged, de-duplicated read rounds. Results align positionally with
// keys.
func (f *front) LookupBatch(keys []Word) ([][]Word, []bool) {
	c := f.MintOp(0, len(keys), pdm.TagLookup.String())
	sats, oks := f.LookupBatchCtx(c, keys)
	pdm.ReleaseOp(c.Op)
	return sats, oks
}

// LookupBatchCtx is LookupBatch attributed to the operation token c:
// one token covers the whole batch. The hits' satellites share one
// backing array, so the batch allocates three objects however many keys
// it answers; a miss's entry is nil.
func (f *front) LookupBatchCtx(c OpCtx, keys []Word) ([][]Word, []bool) {
	sats, oks := make([][]Word, len(keys)), make([]bool, len(keys))
	w := f.core.SatWords()
	buf := make([]Word, len(keys)*w)
	for i := range sats {
		sats[i] = buf[i*w : i*w : (i+1)*w]
	}
	f.core.LookupBatchInto(c.Op, nil, keys, sats, oks)
	return sats, oks
}

// Len returns the number of stored keys.
func (f *front) Len() int { return f.core.Len() }

// ---------------------------------------------------------------------
// Fault injection.

// FaultInjector decides, per block access, whether a fault fires. It is
// consulted by the fault-aware machine batches (the TryBatchRead and
// TryBatchWriteOp forms, which back LookupTry, Repair, and Scrub); the
// plain Lookup/Insert paths run the same batches fault-oblivious. Implementations must not call back into
// the machine. A deterministic, seedable implementation lives in
// internal/fault and is used by the fskv and pdmbench commands; any
// type returning Fault values works here.
type FaultInjector = pdm.FaultInjector

// Fault is one injected fault: its kind, the bit to flip for
// FaultCorrupt, and the extra parallel-I/O steps for FaultStall.
type Fault = pdm.Fault

// FaultKind enumerates the fault taxonomy.
type FaultKind = pdm.FaultKind

// The fault kinds: no fault, fail-stop disk (access denied, data
// intact), transient error (retry may succeed), silent bit corruption
// (caught by block checksums on read), and a stall charged as extra
// parallel I/O steps.
const (
	FaultNone      = pdm.FaultNone
	FaultFailStop  = pdm.FaultFailStop
	FaultTransient = pdm.FaultTransient
	FaultCorrupt   = pdm.FaultCorrupt
	FaultStall     = pdm.FaultStall
)

// Sentinel errors reported by the fault-aware paths; match with
// errors.Is. LookupTry wraps these when a lookup is inconclusive.
var (
	ErrDiskFailed = pdm.ErrDiskFailed
	ErrTransient  = pdm.ErrTransient
	ErrChecksum   = pdm.ErrChecksum
)

// ---------------------------------------------------------------------
// Health and recovery.

// HealthState is one disk's position in the health state machine; see
// Health.
type HealthState = pdm.HealthState

// The health states: Healthy (no evidence against the disk), Suspect (a
// burst of transient errors within the deterministic step window),
// Failed (fail-stop, corruption, or checksum mismatch observed), and
// Repairing (a repair supervisor has claimed the disk).
const (
	DiskHealthy   = pdm.Healthy
	DiskSuspect   = pdm.Suspect
	DiskFailed    = pdm.Failed
	DiskRepairing = pdm.Repairing
)

// HealthReport is a consistent snapshot of every disk's health plus the
// machine-wide recovery counters (retry batches, hedged reads, modeled
// backoff steps, repair chunks and rows).
type HealthReport = pdm.HealthReport

// DiskHealth is one disk's row of a HealthReport.
type DiskHealth = pdm.DiskHealth

// RetryPolicy governs how the fault-aware paths (LookupTry, Repair,
// Scrub) recover from transient errors: how many retry batches to
// issue, how much modeled backoff (charged as parallel-I/O steps, so it
// shows up in the cost accounting — never wall time) to insert between
// them, and whether to hedge retried reads against Suspect or stalling
// disks with a duplicate request. Repair and Scrub retry every
// transiently failed block; LookupTry retries only the blocks its
// answer still needs, so a key a surviving replica already answered
// costs no retry, backoff or hedge. The zero value is the default:
// three immediate retries, no backoff, no hedging.
type RetryPolicy = pdm.RetryPolicy

// DefaultRetryPolicy returns the explicit form of the zero-value
// policy. Installing it changes nothing, byte for byte.
func DefaultRetryPolicy() RetryPolicy { return pdm.DefaultRetryPolicy() }

// ---------------------------------------------------------------------
// Fully dynamic dictionary (the flagship).

// Dict is the fully dynamic deterministic dictionary: Theorem 7
// structures under worst-case global rebuilding. Operations cost a
// constant number of parallel I/Os in the worst case; capacity grows
// without bound; deletions are supported. LookupBatch lets each
// underlying structure merge the keys' probes into shared read rounds,
// and during a migration consults the draining structure only for the
// keys the successor misses; the ledger amortizes a batch's cost over
// its keys. The Dict owns its token counter, so tokens stay unique
// across rebuild generations and both live machines.
type Dict struct {
	front
	d *core.Dict
}

// New creates a fully dynamic dictionary.
func New(opts Options) (*Dict, error) {
	d, err := core.NewDict(core.DictConfig{
		InitialCapacity: opts.Capacity,
		SatWords:        opts.SatWords,
		Degree:          opts.Degree,
		BlockSize:       opts.BlockSize,
		Epsilon:         opts.Epsilon,
		Universe:        opts.Universe,
		Seed:            opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return newDict(d), nil
}

// newDict wraps d; the Dict mints its tokens and keeps its step clock.
func newDict(d *core.Dict) *Dict { return &Dict{front{d, d.MintOp, d.StepCount}, d} }

// NewOneProbeUnbounded creates a fully dynamic dictionary whose bounded
// building block is the Section 6 one-probe structure instead of the
// Theorem 7 cascade: lookups cost exactly one parallel I/O even while a
// global rebuild is in flight (the draining and filling structures
// occupy disjoint disks and answer in the same parallel step), updates
// a worst-case constant — at twice the disks of New.
func NewOneProbeUnbounded(opts Options) (*Dict, error) {
	d, err := core.NewDict(core.DictConfig{
		InitialCapacity: opts.Capacity,
		SatWords:        opts.SatWords,
		Degree:          opts.Degree,
		BlockSize:       opts.BlockSize,
		Universe:        opts.Universe,
		OneProbe:        true,
		Seed:            opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return newDict(d), nil
}

// IOStats returns the accumulated traffic under the wrapper's parallel
// cost model (concurrent structures on disjoint disks cost the max, not
// the sum).
func (d *Dict) IOStats() IOStats {
	s := d.d.Stats()
	return IOStats{ParallelIOs: s.ParallelIOs}
}

// SetHook attaches an observability hook to the machines of both live
// structures and to every machine created by future rebuilds, so traces
// span generations. A nil hook detaches. Not safe to call concurrently
// with operations.
func (d *Dict) SetHook(h IOHook) { d.d.SetHook(h) }

// SetFaultInjector attaches a fault injector to the machines of both
// live structures and to every machine created by future rebuilds. A
// nil injector detaches. Not safe to call concurrently with operations.
func (d *Dict) SetFaultInjector(fi FaultInjector) { d.d.SetFaultInjector(fi) }

// Degraded reports whether either live structure's machine has observed
// a data-threatening fault since its flag was last cleared.
func (d *Dict) Degraded() bool { return d.d.Degraded() }

// WorstOpIOs returns the largest per-key operation cost observed —
// ⌈steps/keys⌉ over every operation, batched or single-key — the
// worst-case guarantee that distinguishes this structure from hashing.
// Attribution is exact even under concurrent callers: every operation
// carries a token charged precisely its own batches.
func (d *Dict) WorstOpIOs() int64 { return d.d.Stats().WorstOp }

// Ops returns the number of operations served.
func (d *Dict) Ops() int64 { return d.d.Stats().Ops }

// Rebuilds returns the number of completed global rebuilds.
func (d *Dict) Rebuilds() int64 { return d.d.Stats().Rebuilds }

// ---------------------------------------------------------------------
// Section 4.1 basic dictionary.

// Basic is the Section 4.1 load-balancing dictionary: fixed capacity,
// one-probe lookups (Lookup and Contains cost one parallel I/O) and
// two-probe updates (an Insert is a read and a write). LookupBatch
// resolves many keys in one batched read that de-duplicates shared
// blocks, so a burst of hot-key lookups (the paper's webmail workload)
// costs far fewer parallel I/Os than issuing them singly.
type Basic struct {
	machineStats
	front
	d *core.BasicDict
}

// BasicOptions extends Options with the Section 4.1 knobs.
type BasicOptions struct {
	Options
	// K is the number of satellite fragments per key: 1 (default) or up
	// to d/2 for the bandwidth variant.
	K int
	// BucketBlocks is the bucket footprint in blocks; 1 (default) gives
	// one-probe buckets.
	BucketBlocks int
	// HeadModel runs the dictionary in the parallel disk *head* model
	// (Section 5's closing remark): buckets are laid out round-robin and
	// the machine allows any D blocks per parallel I/O, so no striped
	// expander is needed.
	HeadModel bool
	// Replicas stores that many full copies of every record, each on a
	// distinct disk, instead of splitting satellites into fragments: the
	// dictionary then tolerates Replicas−1 fail-stop disk failures
	// (LookupTry answers from any surviving copy, and Repair rebuilds a
	// failed disk from the others). 0 or 1 disables replication.
	// Mutually exclusive with K and HeadModel; requires Replicas ≤ d and
	// d ≤ 56.
	Replicas int
}

// NewBasic creates a Section 4.1 dictionary on d disks.
func NewBasic(opts BasicOptions) (*Basic, error) {
	model := pdm.ParallelDisk
	if opts.HeadModel {
		model = pdm.DiskHead
	}
	cfg := core.BasicConfig{
		Capacity:     opts.Capacity,
		SatWords:     opts.SatWords,
		K:            opts.K,
		BucketBlocks: opts.BucketBlocks,
		HeadModel:    opts.HeadModel,
		Universe:     opts.Universe,
		Seed:         opts.Seed,
	}
	if opts.Replicas > 1 {
		if opts.K != 0 && opts.K != opts.Replicas {
			return nil, fmt.Errorf("pdmdict: Replicas and K are mutually exclusive")
		}
		cfg.K = opts.Replicas
		cfg.Replicate = true
	}
	m := pdm.NewMachine(pdm.Config{D: opts.degree(), B: opts.blockSize(), Model: model})
	d, err := core.NewBasic(m, cfg)
	if err != nil {
		return nil, err
	}
	return &Basic{machineStats{m}, machineFront(d, m), d}, nil
}

// MaxLoad returns the maximum bucket load (diagnostics; Lemma 3 bounds
// it).
func (b *Basic) MaxLoad() int { return b.d.MaxLoad() }

// BulkLoad fills an empty dictionary with the given records at external
// sort cost — far cheaper than one Insert per key. Keys must be
// distinct; the resulting structure is identical to what the same
// inserts would have produced.
func (b *Basic) BulkLoad(recs []Record) error {
	in := make([]bucket.Record, len(recs))
	for i, r := range recs {
		in[i] = bucket.Record{Key: r.Key, Sat: r.Sat}
	}
	return b.d.BulkLoad(in, b.d.BlocksPerDisk(), 8)
}

// LookupTry is the fault-aware Lookup: it goes through the machine's
// checked read path and with Replicas ≥ 2 answers from any surviving
// copy. A transiently failed bucket is retried only while the answer
// still needs it: once a verified replica (or, with fragments, all K)
// answers the key, the other buckets' failures cost nothing, while a
// miss needs every bucket. A non-nil error means the lookup was
// inconclusive — the key was not found but some candidate bucket was
// unreadable — never that the key is absent. Like Lookup it mints one
// operation token, charged the probe, its retries and any backoff.
func (b *Basic) LookupTry(key Word) ([]Word, bool, error) {
	op := b.mint(0, 1)
	sat, ok, err := b.d.LookupTryOp(op, key)
	pdm.ReleaseOp(op)
	return sat, ok, err
}

// SetRetryPolicy installs the transient-error recovery policy used by
// LookupTry, Repair, and Scrub. The zero value and DefaultRetryPolicy()
// behave identically — same batches, same trace bytes.
func (b *Basic) SetRetryPolicy(p RetryPolicy) { b.d.SetRetryPolicy(p) }

// RetryPolicy returns the installed recovery policy.
func (b *Basic) RetryPolicy() RetryPolicy { return b.d.RetryPolicy() }

// Repair rebuilds every bucket of the given disk from the surviving
// replicas on other disks, then rewrites the disk; it requires
// Replicas ≥ 2. After a fail-stop disk is healed (the injector stops
// failing it), Repair restores its contents bit-identically.
func (b *Basic) Repair(disk int) error { return b.d.Repair(disk) }

// Scrub reads every bucket through the checked path and returns the
// addresses that failed (checksum mismatch or unreadable). A clean
// scrub clears the machine's degraded flag.
func (b *Basic) Scrub() []Addr { return b.d.Scrub() }

// ScrubDisk verifies one disk's stripe with checked reads and returns
// the addresses that failed. A clean pass returns ONLY that disk to the
// Healthy state (pdm.MarkHealthy) — unlike the machine-wide Scrub it
// can never erase another disk's Failed record, so per-disk health
// survives partial recoveries (heal+repair of one disk while another is
// still down).
func (b *Basic) ScrubDisk(disk int) []Addr {
	var bad []Addr
	for row := 0; ; {
		chunk, next, done := b.d.ScrubRange(nil, disk, row, 64)
		bad = append(bad, chunk...)
		row = next
		if done {
			break
		}
	}
	if len(bad) == 0 {
		b.m.MarkHealthy(disk)
	}
	return bad
}

// SelfHeal starts the background repair supervisor: a goroutine that
// sleeps on the machine's health notifications and, whenever a disk
// becomes repairable (Failed but answering again, or Suspect), rebuilds
// and verifies it in bounded chunks interleaved with live traffic,
// returning it to Healthy without any outside help. Requires
// Replicas ≥ 2 for actual rebuilds; Suspect disks are verified by scrub
// alone.
//
// wake nudges the supervisor to re-examine disk health without waiting
// for a machine health notification — lock-free and safe from any
// goroutine, including an obs.AlertListener inside a hook dispatch
// (wire a degraded-capacity alert to it). The stop function halts the
// supervisor and blocks until it has exited; call it before discarding
// the structure.
func (b *Basic) SelfHeal() (wake, stop func()) {
	s := heal.New(b.m, b.d, heal.Config{})
	s.Start()
	return s.Wake, s.Stop
}

// ---------------------------------------------------------------------
// Direct addressing (the tiny-universe special case).

// Direct is simple direct addressing — the structure the paper's
// Theorem 6 discussion recommends "when the universe is tiny": every
// key of [0, Universe) owns a fixed slot, giving 1-I/O lookups and
// 2-I/O updates with zero machinery, at Θ(u) space. Use it when u is
// within a constant factor of n; the expander structures exist for the
// regime u ≫ n.
type Direct struct {
	machineStats
	d *core.DirectDict
}

// NewDirect creates a direct-addressed dictionary; opts.Universe is the
// (small) universe size and must be set.
func NewDirect(opts Options) (*Direct, error) {
	if opts.Universe == 0 {
		return nil, fmt.Errorf("pdmdict: NewDirect requires Options.Universe")
	}
	m := pdm.NewMachine(pdm.Config{D: opts.degree(), B: opts.blockSize()})
	d, err := core.NewDirect(m, opts.Universe, opts.SatWords)
	if err != nil {
		return nil, err
	}
	return &Direct{machineStats{m}, d}, nil
}

// Lookup returns a copy of key's satellite data and whether it is
// present (one parallel I/O).
func (d *Direct) Lookup(key Word) ([]Word, bool) { return d.d.Lookup(key) }

// Contains reports whether key is present.
func (d *Direct) Contains(key Word) bool { return d.d.Contains(key) }

// Insert stores (key, sat) in two parallel I/Os.
func (d *Direct) Insert(key Word, sat []Word) error { return d.d.Insert(key, sat) }

// Delete removes key, reporting whether it was present.
func (d *Direct) Delete(key Word) bool { return d.d.Delete(key) }

// Len returns the number of stored keys.
func (d *Direct) Len() int { return d.d.Len() }

// ---------------------------------------------------------------------
// Theorem 6 static dictionary.

// Static is the one-probe static dictionary of Theorem 6.
type Static struct {
	machineStats
	d *core.StaticDict
}

// StaticOptions extends Options with the Theorem 6 knobs.
type StaticOptions struct {
	Options
	// CaseA selects the Theorem 6(a) layout (membership dictionary +
	// pointer-chained fields on 2d disks); the default is case (b)
	// (identifier fields on d disks).
	CaseA bool
}

// BuildStatic constructs the dictionary over the given records.
func BuildStatic(opts StaticOptions, recs []Record) (*Static, error) {
	disks := opts.degree()
	cs := core.CaseB
	if opts.CaseA {
		cs = core.CaseA
		disks *= 2
	}
	m := pdm.NewMachine(pdm.Config{D: disks, B: opts.blockSize()})
	in := make([]bucket.Record, len(recs))
	for i, r := range recs {
		in[i] = bucket.Record{Key: r.Key, Sat: r.Sat}
	}
	d, err := core.BuildStatic(m, core.StaticConfig{
		SatWords: opts.SatWords,
		Case:     cs,
		Universe: opts.Universe,
		Seed:     opts.Seed,
	}, in)
	if err != nil {
		return nil, err
	}
	return &Static{machineStats{m}, d}, nil
}

// Lookup returns a copy of key's satellite data and whether it is
// present, in exactly one parallel I/O.
func (s *Static) Lookup(key Word) ([]Word, bool) { return s.d.Lookup(key) }

// Contains reports whether key is present (one parallel I/O).
func (s *Static) Contains(key Word) bool { return s.d.Contains(key) }

// Insert is unsupported: the structure is static (use Dynamic or Dict).
func (s *Static) Insert(Word, []Word) error { return core.ErrFull }

// Delete is unsupported: the structure is static.
func (s *Static) Delete(Word) bool { return false }

// Len returns the number of stored keys.
func (s *Static) Len() int { return s.d.Len() }

// ConstructionIOs returns the parallel I/O cost of BuildStatic.
func (s *Static) ConstructionIOs() int64 { return s.d.ConstructionIOs.ParallelIOs }

// ---------------------------------------------------------------------
// Theorem 7 dynamic dictionary.

// Dynamic is the bounded-capacity dynamic dictionary of Theorem 7.
// Unsuccessful searches cost exactly one parallel I/O, successful ones
// at most 1+ɛ on average, and updates 2+ɛ on average. LookupBatch takes
// at most two batched reads: one for every key's membership buckets and
// first-array fields, one shared by the (rare) keys resident in deeper
// arrays.
type Dynamic struct {
	machineStats
	front
	d *core.DynamicDict
}

// NewDynamic creates a Theorem 7 dictionary on 2d disks. The theorem's
// constraint d > 6(1+1/ɛ) is enforced.
func NewDynamic(opts Options) (*Dynamic, error) {
	m := pdm.NewMachine(pdm.Config{D: 2 * opts.degree(), B: opts.blockSize()})
	d, err := core.NewDynamic(m, core.DynamicConfig{
		Capacity: opts.Capacity,
		SatWords: opts.SatWords,
		Epsilon:  opts.Epsilon,
		Universe: opts.Universe,
		Seed:     opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Dynamic{machineStats{m}, machineFront(d, m), d}, nil
}

// LevelCounts returns the per-level occupancy of the retrieval cascade.
func (d *Dynamic) LevelCounts() []int { return d.d.LevelCounts() }

// LookupTry is the fault-aware Lookup: both read rounds go through the
// machine's checked read path, and a transiently failed block is
// re-issued, up to three times, only while the key's answer still needs
// it — the membership blocks until they settle the key, then the fields
// its chain walks on its resident level. Membership records and fields
// have one copy each, so a fail-stopped disk among the blocks a key
// needs makes its lookup inconclusive: a non-nil error, never a wrong
// answer or a false absence. A failed field off the key's chain costs
// nothing. Like Lookup it mints one operation token.
func (d *Dynamic) LookupTry(key Word) ([]Word, bool, error) {
	op := d.mint(0, 1)
	sat, ok, err := d.d.LookupTryOp(op, key)
	pdm.ReleaseOp(op)
	return sat, ok, err
}

// ---------------------------------------------------------------------
// Section 6 (Open Problems) exploration.

// OneProbe is an experimental structure exploring the paper's Open
// Problems section: full-bandwidth lookups in exactly ONE parallel I/O
// *and* updates in exactly two, achieved by giving each level of the
// Section 4.3 cascade its own disk group (a constant-factor disk
// increase, as the paper permits elsewhere). What remains non-constant
// is the failure path: when no level can host a chain the structure
// must be rebuilt (Insert returns an error), the caveat the paper's
// "this makes the time for updates non-constant" remark anticipates.
// Lookup and Contains cost exactly one parallel I/O, Insert and Delete
// exactly two, and LookupBatch one batched read: every key's membership
// and field blocks are merged into the same parallel I/O.
type OneProbe struct {
	machineStats
	front
	d *core.OneProbeDict
}

// OneProbeOptions extends Options with the recursion depth.
type OneProbeOptions struct {
	Options
	// Levels is the cascade depth c; the structure occupies
	// (Levels+1)·Degree disks. 0 defaults to 3.
	Levels int
}

// NewOneProbe creates the Section 6 structure.
func NewOneProbe(opts OneProbeOptions) (*OneProbe, error) {
	levels := opts.Levels
	if levels == 0 {
		levels = 3
	}
	m := pdm.NewMachine(pdm.Config{D: (levels + 1) * opts.degree(), B: opts.blockSize()})
	d, err := core.NewOneProbe(m, core.OneProbeConfig{
		Capacity: opts.Capacity,
		SatWords: opts.SatWords,
		Levels:   levels,
		Universe: opts.Universe,
		Seed:     opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &OneProbe{machineStats{m}, machineFront(d, m), d}, nil
}

// LevelCounts returns the per-level occupancy.
func (o *OneProbe) LevelCounts() []int { return o.d.LevelCounts() }

// ---------------------------------------------------------------------
// Baselines (Figure 1 comparators).

// HashTable is the striped bucketed hash table ("Hashing … no overflow"
// and, with default sizing, the [7] stand-in).
type HashTable struct {
	machineStats
	d *hashing.Table
}

// NewHashTable creates a hashing baseline on Degree disks.
func NewHashTable(opts Options) (*HashTable, error) {
	m := pdm.NewMachine(pdm.Config{D: opts.degree(), B: opts.blockSize()})
	d, err := hashing.NewTable(m, hashing.TableConfig{
		Capacity: opts.Capacity,
		SatWords: opts.SatWords,
		Seed:     opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &HashTable{machineStats{m}, d}, nil
}

// Lookup returns a copy of key's satellite data and whether it is present.
func (h *HashTable) Lookup(key Word) ([]Word, bool) { return h.d.Lookup(key) }

// Contains reports whether key is present.
func (h *HashTable) Contains(key Word) bool { return h.d.Contains(key) }

// Insert stores (key, sat).
func (h *HashTable) Insert(key Word, sat []Word) error { return h.d.Insert(key, sat) }

// Delete removes key, reporting whether it was present.
func (h *HashTable) Delete(key Word) bool { return h.d.Delete(key) }

// Len returns the number of stored keys.
func (h *HashTable) Len() int { return h.d.Len() }

// Cuckoo is cuckoo hashing [13] in the parallel disk model.
type Cuckoo struct {
	machineStats
	d *hashing.Cuckoo
}

// NewCuckoo creates the cuckoo baseline on Degree disks (must be even).
func NewCuckoo(opts Options) (*Cuckoo, error) {
	m := pdm.NewMachine(pdm.Config{D: opts.degree(), B: opts.blockSize()})
	d, err := hashing.NewCuckoo(m, hashing.CuckooConfig{
		Capacity: opts.Capacity,
		SatWords: opts.SatWords,
		Seed:     opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Cuckoo{machineStats{m}, d}, nil
}

// Lookup returns a copy of key's satellite data and whether it is
// present, in exactly one parallel I/O.
func (c *Cuckoo) Lookup(key Word) ([]Word, bool) { return c.d.Lookup(key) }

// Contains reports whether key is present.
func (c *Cuckoo) Contains(key Word) bool { return c.d.Contains(key) }

// Insert stores (key, sat); amortized expected constant I/Os.
func (c *Cuckoo) Insert(key Word, sat []Word) error { return c.d.Insert(key, sat) }

// Delete removes key, reporting whether it was present.
func (c *Cuckoo) Delete(key Word) bool { return c.d.Delete(key) }

// Len returns the number of stored keys.
func (c *Cuckoo) Len() int { return c.d.Len() }

// TwoLevel is the "[7] + trick" baseline: 1+ɛ average searches with
// full-stripe bandwidth.
type TwoLevel struct {
	machineStats
	d *hashing.TwoLevel
}

// NewTwoLevel creates the two-level baseline on Degree disks.
func NewTwoLevel(opts Options) (*TwoLevel, error) {
	m := pdm.NewMachine(pdm.Config{D: opts.degree(), B: opts.blockSize()})
	d, err := hashing.NewTwoLevel(m, hashing.TwoLevelConfig{
		Capacity: opts.Capacity,
		SatWords: opts.SatWords,
		Seed:     opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &TwoLevel{machineStats{m}, d}, nil
}

// Lookup returns a copy of key's satellite data and whether it is present.
func (t *TwoLevel) Lookup(key Word) ([]Word, bool) { return t.d.Lookup(key) }

// Contains reports whether key is present.
func (t *TwoLevel) Contains(key Word) bool { return t.d.Contains(key) }

// Insert stores (key, sat).
func (t *TwoLevel) Insert(key Word, sat []Word) error { return t.d.Insert(key, sat) }

// Delete removes key, reporting whether it was present.
func (t *TwoLevel) Delete(key Word) bool { return t.d.Delete(key) }

// Len returns the number of stored keys.
func (t *TwoLevel) Len() int { return t.d.Len() }

// BTree is the Section 1.2 baseline: Θ(log_BD n) I/Os per lookup.
type BTree struct {
	machineStats
	d *btree.Tree
}

// BTreeOptions extends Options with the node geometry.
type BTreeOptions struct {
	Options
	// Striped selects stripe-sized nodes (fanout B·D) instead of
	// block-sized nodes.
	Striped bool
}

// NewBTree creates the B-tree baseline on Degree disks.
func NewBTree(opts BTreeOptions) (*BTree, error) {
	m := pdm.NewMachine(pdm.Config{D: opts.degree(), B: opts.blockSize()})
	d, err := btree.New(m, btree.Config{SatWords: opts.SatWords, Striped: opts.Striped})
	if err != nil {
		return nil, err
	}
	return &BTree{machineStats{m}, d}, nil
}

// Lookup returns a copy of key's satellite data and whether it is
// present, in Height parallel I/Os.
func (b *BTree) Lookup(key Word) ([]Word, bool) { return b.d.Lookup(key) }

// Contains reports whether key is present.
func (b *BTree) Contains(key Word) bool { return b.d.Contains(key) }

// Insert stores (key, sat).
func (b *BTree) Insert(key Word, sat []Word) error { return b.d.Insert(key, sat) }

// Delete removes key, reporting whether it was present.
func (b *BTree) Delete(key Word) bool { return b.d.Delete(key) }

// Len returns the number of stored keys.
func (b *BTree) Len() int { return b.d.Len() }

// Height returns the tree height — the per-lookup I/O cost.
func (b *BTree) Height() int { return b.d.Height() }
