package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"pdmdict/internal/bucket"
	"pdmdict/internal/expander"
	"pdmdict/internal/loadbalance"
	"pdmdict/internal/pdm"
)

// BasicConfig parameterizes the Section 4.1 dictionary.
type BasicConfig struct {
	// Capacity is N, the maximum number of keys. Required.
	Capacity int
	// SatWords is the satellite size per key, in words.
	SatWords int
	// K is the number of satellite fragments per key: 1 gives the plain
	// dictionary; d/2 gives the bandwidth variant ("by changing the
	// parameters of the load balancing scheme to k = d/2 and
	// v = kn/log N, it is possible to accommodate lookup of associated
	// information of size O(BD/log N) in one I/O"). 0 defaults to 1.
	K int
	// BucketBlocks is the number of blocks per bucket. 1 (the default)
	// gives one-probe buckets and requires the Lemma 3 max load to fit a
	// block; larger values implement "the contents of each bucket can be
	// stored in a trivial way in O(1) blocks".
	BucketBlocks int
	// Slack oversizes the bucket array: v is chosen so that the average
	// bucket is 1/Slack full. 0 defaults to 4.
	Slack float64
	// Universe is the key universe size u; 0 defaults to 2^63 (keys are
	// words).
	Universe uint64
	// Seed selects the expander from the deterministic family.
	Seed uint64
	// Graph, when non-nil, supplies the striped expander directly —
	// e.g. a Section 5 semi-explicit construction wrapped by
	// explicit.NewTrivialStripe — instead of the default seeded family.
	// Its degree must equal the dictionary's disk count; its stripe size
	// fixes the bucket array (Slack is then ignored), and its left size
	// overrides Universe.
	Graph expander.Striped
	// Replicate reinterprets K as a replication count: instead of
	// splitting the satellite into K fragments, the dictionary stores K
	// full copies of (key, satellite) in K *distinct* stripes of Γ(x) —
	// i.e. on K distinct disks. This is the fault-tolerance reading of
	// the paper's k-of-d placement (Lemma 3): any K−1 disk failures
	// leave a live copy of every key, so degraded lookups (LookupTry)
	// stay correct and Repair can rebuild a lost disk from survivors.
	// Each stored record's tag word encodes the replica's rank and the
	// full stripe set, making repair deterministic; buckets are kept in
	// a canonical sorted layout so repaired blocks are bit-identical to
	// what was lost. Requires a striped layout (no HeadModel) and
	// d ≤ 56 (the stripe mask shares the tag word with the rank).
	Replicate bool
	// HeadModel lays buckets out round-robin over the disks instead of
	// stripe-per-disk, for machines running the parallel disk *head*
	// model (Section 5's closing remark: "If we implement the described
	// dictionaries in the parallel disk head model, we do not need the
	// striped property"). With it, UnstripedGraph may supply any
	// left-d-regular expander — no striping required — and a probe's d
	// blocks still cost one parallel I/O because any D blocks do. On a
	// standard parallel-disk machine the same layout works but probes
	// suffer per-disk conflicts (experiment A1 quantifies this).
	HeadModel bool
	// UnstripedGraph supplies the expander in HeadModel mode; nil
	// defaults to a seeded unstriped family. Ignored otherwise.
	UnstripedGraph expander.Graph
}

// maxConfigSlack bounds every Slack-like sizing factor; configs beyond
// it come from corrupt snapshots, not real use.
const maxConfigSlack = 1 << 20

func (c *BasicConfig) normalize() error {
	if c.Capacity <= 0 {
		return fmt.Errorf("core: BasicConfig.Capacity = %d, must be positive", c.Capacity)
	}
	if c.SatWords < 0 {
		return fmt.Errorf("core: negative SatWords")
	}
	if c.K == 0 {
		c.K = 1
	}
	if c.K < 0 {
		return fmt.Errorf("core: negative K")
	}
	if c.BucketBlocks == 0 {
		c.BucketBlocks = 1
	}
	if c.BucketBlocks < 0 {
		return fmt.Errorf("core: negative BucketBlocks")
	}
	if c.Slack == 0 {
		c.Slack = 4
	}
	// The negated comparison also rejects NaN, which a corrupt snapshot
	// can smuggle into any float field.
	if !(c.Slack >= 1 && c.Slack <= maxConfigSlack) {
		return fmt.Errorf("core: Slack %v outside [1, %d]", c.Slack, maxConfigSlack)
	}
	if c.Universe == 0 {
		c.Universe = 1 << 63
	}
	return nil
}

// BasicDict is the dictionary of Section 4.1: an array of v buckets,
// split across the d disks according to the stripes of a striped
// expander of degree d, running the deterministic load balancing scheme
// of Section 3 with k items (satellite fragments) per key.
//
// Lookups read the d buckets of Γ(x) — one per disk, a single parallel
// I/O when BucketBlocks is 1 — and updates additionally write back the
// touched buckets, also one parallel I/O. Nothing is ever moved after
// insertion, and there is no index or central directory: operations go
// directly to the relevant blocks knowing only the graph.
//
// The dictionary is safe for concurrent use: lookups (Lookup, Contains,
// LookupBatchInto, LookupTry, Scan) share a read lock and run concurrently
// with each other — the d-choice probes are independent, which is
// exactly what the sharded machine parallelizes — while updates
// (Insert, Delete, BulkLoad, Repair) are exclusive. The unexported
// helpers (probeAddrs, insertWrites, …) take no locks: composite
// structures call them under their own synchronization.
type BasicDict struct {
	mu        sync.RWMutex
	reg       region
	graph     expander.Graph
	striped   expander.Striped // nil in HeadModel mode
	buckets   int              // v, total buckets
	cfg       BasicConfig
	codec     bucket.Codec
	fragWords int
	n         int // guarded by mu
	scratch   scratchPool

	// retry governs degraded-read recovery (LookupTry and friends); the
	// zero value is the historical default. repairJob, when non-nil, is
	// the in-progress incremental repair: the update paths feed it the
	// authoritative record changes for the stripe under reconstruction
	// (see RepairJob).
	retry     pdm.RetryPolicy // guarded by mu
	repairJob *RepairJob      // guarded by mu
}

// SetRetryPolicy installs the policy the fault-aware paths (LookupTry,
// LookupTryOp, Repair, Scrub) use for transient-error recovery. The
// zero value restores the default: three immediate retries, no backoff,
// no hedging — the historical hardcoded behavior.
func (bd *BasicDict) SetRetryPolicy(p pdm.RetryPolicy) {
	bd.mu.Lock()
	bd.retry = p
	bd.mu.Unlock()
}

// RetryPolicy returns the installed recovery policy (zero = default).
func (bd *BasicDict) RetryPolicy() pdm.RetryPolicy {
	bd.mu.RLock()
	defer bd.mu.RUnlock()
	return bd.retry
}

// NewBasic creates an empty dictionary occupying the given region. The
// region's disk count is the expander degree d.
func NewBasic(m *pdm.Machine, cfg BasicConfig) (*BasicDict, error) {
	return newBasicAt(region{m: m, nDisks: m.D()}, cfg)
}

func newBasicAt(reg region, cfg BasicConfig) (*BasicDict, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	d := reg.nDisks
	if cfg.K > d {
		return nil, fmt.Errorf("core: K=%d exceeds degree d=%d", cfg.K, d)
	}
	if cfg.Replicate {
		if cfg.HeadModel {
			return nil, fmt.Errorf("core: Replicate requires the striped layout (no HeadModel)")
		}
		if d > maxReplicateDegree {
			return nil, fmt.Errorf("core: Replicate supports d ≤ %d, got %d", maxReplicateDegree, d)
		}
	}
	fragWords := 0
	if cfg.SatWords > 0 {
		if cfg.Replicate {
			fragWords = cfg.SatWords // each "fragment" is a full copy
		} else {
			fragWords = ceilDiv(cfg.SatWords, cfg.K)
		}
	}
	codec := bucket.Codec{B: reg.m.B(), SatWords: 1 + fragWords} // sat = [fragIdx, frag...]
	perBlock := codec.Capacity()
	if perBlock == 0 {
		return nil, fmt.Errorf("core: record of %d words does not fit block of %d", codec.RecordWords(), reg.m.B())
	}
	capPerBucket := cfg.BucketBlocks * perBlock
	minBuckets := ceilDiv(int(cfg.Slack*float64(cfg.K*cfg.Capacity)), capPerBucket)
	if minBuckets < d {
		minBuckets = d
	}

	bd := &BasicDict{reg: reg, cfg: cfg, codec: codec, fragWords: fragWords}
	switch {
	case cfg.HeadModel:
		g := cfg.UnstripedGraph
		if g == nil {
			g = expander.NewUnstriped(cfg.Universe, d, minBuckets, cfg.Seed)
		}
		if g.Degree() != d {
			return nil, fmt.Errorf("core: supplied graph has degree %d, dictionary spans %d disks", g.Degree(), d)
		}
		if capacity := g.RightSize() * capPerBucket; capacity < cfg.K*cfg.Capacity {
			return nil, fmt.Errorf("core: supplied graph offers %d record slots, capacity needs %d", capacity, cfg.K*cfg.Capacity)
		}
		bd.cfg.Universe = g.LeftSize()
		bd.graph = g
		bd.buckets = g.RightSize()
	case cfg.Graph != nil:
		if cfg.Graph.Degree() != d {
			return nil, fmt.Errorf("core: supplied graph has degree %d, dictionary spans %d disks", cfg.Graph.Degree(), d)
		}
		if capacity := cfg.Graph.RightSize() * capPerBucket; capacity < cfg.K*cfg.Capacity {
			return nil, fmt.Errorf("core: supplied graph offers %d record slots, capacity needs %d", capacity, cfg.K*cfg.Capacity)
		}
		bd.cfg.Universe = cfg.Graph.LeftSize()
		bd.graph = cfg.Graph
		bd.striped = cfg.Graph
		bd.buckets = cfg.Graph.RightSize()
	default:
		g := expander.NewFamily(cfg.Universe, d, ceilDiv(minBuckets, d), cfg.Seed)
		bd.graph = g
		bd.striped = g
		bd.buckets = g.RightSize()
	}
	return bd, nil
}

// Len returns the number of keys stored.
func (bd *BasicDict) Len() int {
	bd.mu.RLock()
	defer bd.mu.RUnlock()
	return bd.n
}

// Capacity returns the configured capacity N.
func (bd *BasicDict) Capacity() int { return bd.cfg.Capacity }

// SatWords returns the satellite size per key, in words.
func (bd *BasicDict) SatWords() int { return bd.cfg.SatWords }

// Graph returns the underlying expander (a Striped one unless the
// dictionary runs in HeadModel mode).
func (bd *BasicDict) Graph() expander.Graph { return bd.graph }

// Buckets returns v, the number of buckets.
func (bd *BasicDict) Buckets() int { return bd.buckets }

// BlocksPerDisk returns the dictionary's space footprint per disk.
func (bd *BasicDict) BlocksPerDisk() int {
	return ceilDiv(bd.buckets, bd.reg.nDisks) * bd.cfg.BucketBlocks
}

// bucketPos maps a global bucket id to its (disk, bucket-row) position:
// striped graphs put stripe i on disk i; the head-model layout
// round-robins buckets over the disks (placement is irrelevant there —
// any D blocks cost one parallel I/O).
func (bd *BasicDict) bucketPos(y int) (disk, row int) {
	if bd.striped != nil {
		ss := bd.striped.StripeSize()
		return y / ss, y % ss
	}
	return y % bd.reg.nDisks, y / bd.reg.nDisks
}

// bucketAddrs returns the BucketBlocks addresses of global bucket y.
func (bd *BasicDict) bucketAddrs(y int, dst []pdm.Addr) []pdm.Addr {
	disk, row := bd.bucketPos(y)
	base := row * bd.cfg.BucketBlocks
	for b := 0; b < bd.cfg.BucketBlocks; b++ {
		dst = append(dst, bd.reg.addr(disk, base+b))
	}
	return dst
}

// neighbors appends x's d global bucket ids to dst.
func (bd *BasicDict) neighbors(x pdm.Word, dst []int) []int {
	return bd.graph.Neighbors(uint64(x), dst)
}

// probeAddrs appends the addresses of the d buckets of Γ(x), in
// neighbor order. Composite dictionaries batch these together with
// their own addresses so one parallel I/O probes every sub-structure at
// once.
func (bd *BasicDict) probeAddrs(sc *probeScratch, x pdm.Word, dst []pdm.Addr) []pdm.Addr {
	sc.ns = bd.neighbors(x, sc.ns[:0])
	for _, y := range sc.ns {
		dst = bd.bucketAddrs(y, dst)
	}
	return dst
}

// probeLen returns how many blocks probeAddrs contributes.
func (bd *BasicDict) probeLen() int { return bd.graph.Degree() * bd.cfg.BucketBlocks }

// bucketOf returns, out of the flat block list read for probeAddrs, the
// BucketBlocks blocks of the bucket in stripe i.
func (bd *BasicDict) bucketOf(flat [][]pdm.Word, i int) [][]pdm.Word {
	return flat[i*bd.cfg.BucketBlocks : (i+1)*bd.cfg.BucketBlocks]
}

// lookupInBlocks interprets a pre-fetched neighborhood (the blocks for
// probeAddrs(x)) exactly as Lookup would, without any I/O, and writes
// x's satellite into dst as assemble does, answering nil on a miss. The
// blocks are only read, never retained: the answer is a copy.
func (bd *BasicDict) lookupInBlocks(sc *probeScratch, x pdm.Word, flat [][]pdm.Word, dst []pdm.Word) ([]pdm.Word, bool) {
	frags := sc.fragSlots(bd.cfg.K)
	if !bd.present(bd.findFragments(x, flat, frags, nil)) {
		return nil, false
	}
	return bd.assemble(dst, frags), true
}

// bucketLoad counts the records across a bucket's blocks, skipping nil
// blocks (failed degraded-mode reads).
func (bd *BasicDict) bucketLoad(blocks [][]pdm.Word) int {
	n := 0
	for _, blk := range blocks {
		if blk == nil {
			continue
		}
		n += bd.codec.Count(blk)
	}
	return n
}

// maxReplicateDegree bounds d in Replicate mode: the tag word packs the
// replica rank into its low 8 bits and the stripe mask above them.
const maxReplicateDegree = 56

// replicaTag packs a replica's identity into the record's tag word:
// rank in the low 8 bits, the stripe mask (which of the d neighbors
// hold copies) above. The rank is redundant — it is the replica's
// position within the mask — but storing it keeps the tag, and with it
// the canonical bucket layout, a pure function of (key, stripe).
func replicaTag(rank int, mask uint64) pdm.Word {
	return pdm.Word(uint64(rank) | mask<<8)
}

// replicaRank is the rank encoded by replicaTag for stripe s: the
// number of mask bits below s.
func replicaRank(mask uint64, s int) int {
	return bits.OnesCount64(mask & (1<<uint(s) - 1))
}

// fragIndex extracts a record's fragment index (fragment mode) or
// replica rank (replicate mode) from the tag word.
func (bd *BasicDict) fragIndex(tag pdm.Word) int {
	if bd.cfg.Replicate {
		return int(tag & 0xff)
	}
	return int(tag)
}

// present reports whether found distinct fragments prove the key
// stored: all K fragments in fragment mode, any one replica in replicate
// mode.
func (bd *BasicDict) present(found int) bool {
	if bd.cfg.Replicate {
		return found > 0
	}
	return found == bd.cfg.K
}

// findFragments scans a neighborhood (the flat blocks for probeAddrs(x))
// in place and files x's records into frags, indexed by fragment index
// (replica rank in replicate mode); frags must hold K empty slots, and
// the data filed there aliases the blocks. It returns how many distinct
// slots it filled and, when touched is non-nil (one entry per stripe),
// marks the stripes holding at least one record of x. Nil blocks (failed
// degraded-mode reads) are skipped; a record whose index is outside
// [0, K) can only come from a damaged block and is ignored.
func (bd *BasicDict) findFragments(x pdm.Word, flat [][]pdm.Word, frags [][]pdm.Word, touched []bool) (found int) {
	for b, blk := range flat {
		if blk == nil {
			continue
		}
		for rec, i, ok := bd.codec.Next(blk, x, 0); ok; rec, i, ok = bd.codec.Next(blk, x, i) {
			if touched != nil {
				touched[b/bd.cfg.BucketBlocks] = true
			}
			j := bd.fragIndex(rec[0])
			if j < 0 || j >= len(frags) {
				continue
			}
			if frags[j] == nil {
				found++
			}
			frags[j] = rec[1:]
		}
	}
	return found
}

// LookupBatchInto resolves many keys with ONE batched read: every key's
// d bucket addresses are collected, de-duplicated, and fetched together.
// The parallel-I/O cost is the deepest per-disk queue of *distinct*
// blocks, so skewed batches (hot keys repeating, as in the paper's
// webmail workload) cost far less than len(keys) single lookups — the
// shared buckets are read once. keys[i] is answered into sats[i] and
// oks[i], which the caller owns (both at least len(keys) long), and the
// batch is attributed to operation tokens by pdm.Machine.BatchReadInto's
// convention. Either op owns the whole batch (shared empty; a nil op
// keeps the legacy shared-stack attribution), or shared[i] owns
// keys[i] — the group-commit scheduler's shared round, with op nil and
// len(shared) == len(keys). Each owner gets a root span and is charged
// every merged round it rides, in full: splitting it would void the
// per-op worst-case bounds. Shared tokens must be non-nil, distinct,
// and owned by callers blocked during the call, so the calling
// goroutine is each token's single toucher.
func (bd *BasicDict) LookupBatchInto(op *pdm.Op, shared []*pdm.Op, keys []pdm.Word, sats [][]pdm.Word, oks []bool) {
	bd.lookup(op, shared, keys, sats, oks, false)
}

// lookup is the dictionary's one lookup body: keys[i] is answered into
// sats[i], oks[i] from one merged, de-duplicated read of every key's d
// buckets. A single key is the batch of one, whose de-duplication is
// the identity. With try (and no shared round) the read goes through
// the fault layer under the retry policy, and a retry round re-issues
// only the failed blocks of keys the read has not yet settled; the
// result counts the keys left inconclusive — not found, a block of
// theirs missing — and, when there are any, carries a copy of the
// read's error.
func (bd *BasicDict) lookup(op *pdm.Op, shared []*pdm.Op, keys []pdm.Word, sats [][]pdm.Word, oks []bool, try bool) (inconclusive int, err error) {
	bd.mu.RLock()
	defer bd.mu.RUnlock()
	sc := bd.scratch.get()
	defer bd.scratch.put(sc)
	sc.openSpans(bd.reg.m, pdm.TagLookup, op, shared)
	defer sc.closeSpans()
	sc.r1.reset()
	for _, x := range keys {
		sc.one = bd.probeAddrs(sc, x, sc.one[:0])
		sc.r1.add(sc.one)
	}
	var flat [][]pdm.Word
	if try {
		m := bd.reg.m
		flat, err = m.TryBatchReadInto(&sc.buf, op, nil, sc.r1.addrs)
		for attempt, retried := 0, true; retried && err != nil && attempt < bd.retry.Retries(); attempt++ {
			if !bd.markUnsettledLocked(sc, keys, flat) {
				break
			}
			retried, err = sc.retries.retry(m, op, bd.retry, attempt, sc.r1.addrs, flat, err, sc.retries.need)
		}
	} else {
		flat = bd.reg.m.BatchReadInto(&sc.buf, op, shared, sc.r1.addrs)
	}
	view := sc.keyView(bd.probeLen())
	for ki, x := range keys {
		sc.r1.keyBlocks(ki, flat, view)
		sats[ki], oks[ki] = bd.lookupInBlocks(sc, x, view, sats[ki])
		if !oks[ki] && hasNil(view) {
			inconclusive++
		}
	}
	return inconclusive, inconclusiveError(inconclusive, err)
}

// markUnsettledLocked marks, in the retry scratch's need list (one mark
// per slot of the merged read flat), the missing blocks of every key of
// keys that flat has not settled, and reports whether it marked any.
// A key's verified blocks settle it as a hit once they prove it present
// (one live replica, or all K fragments), and as a miss only once every
// one of its probe blocks arrived.
func (bd *BasicDict) markUnsettledLocked(sc *probeScratch, keys []pdm.Word, flat [][]pdm.Word) bool {
	need := sc.retries.marks(len(flat))
	view := sc.keyView(bd.probeLen())
	marked := false
	for ki, x := range keys {
		sc.r1.keyBlocks(ki, flat, view)
		if !hasNil(view) || bd.present(bd.findFragments(x, view, sc.fragSlots(bd.cfg.K), nil)) {
			continue
		}
		marked = sc.r1.markMissing(ki, view, 0, len(view), need) || marked
	}
	return marked
}

// Lookup returns a copy of x's satellite data and whether x is present.
// Cost: one batched read of the d buckets of Γ(x) — a single parallel
// I/O when BucketBlocks is 1.
func (bd *BasicDict) Lookup(x pdm.Word) ([]pdm.Word, bool) {
	return bd.LookupOp(nil, x)
}

// LookupOp is Lookup attributed to the operation token op.
func (bd *BasicDict) LookupOp(op *pdm.Op, x pdm.Word) ([]pdm.Word, bool) {
	var sat [1][]pdm.Word
	var ok [1]bool
	bd.lookup(op, nil, []pdm.Word{x}, sat[:], ok[:], false)
	return sat[0], ok[0]
}

// Contains reports whether x is present, at the same cost as Lookup.
func (bd *BasicDict) Contains(x pdm.Word) bool {
	_, ok := bd.Lookup(x)
	return ok
}

// assemble writes x's satellite, rebuilt from its fragment slots, into
// dst[:0] when dst can hold it, and into a new slice of exactly its size
// otherwise. Callers gate on present(): fragment mode then has every
// slot filled, and in replicate mode the first live replica supplies
// the whole satellite.
func (bd *BasicDict) assemble(dst []pdm.Word, frags [][]pdm.Word) []pdm.Word {
	need := bd.cfg.SatWords
	dst = answerBuf(dst, need)
	for _, f := range frags {
		if len(f) > need {
			f = f[:need]
		}
		dst = append(dst, f...)
		need -= len(f)
	}
	return dst
}

// Insert stores (x, sat), replacing any previous satellite for x. sat
// must hold exactly SatWords words. Cost: the Lookup read batch plus one
// batched write of the modified buckets (a single parallel I/O, since
// the touched buckets lie in distinct stripes).
func (bd *BasicDict) Insert(x pdm.Word, sat []pdm.Word) error {
	return bd.InsertOp(nil, x, sat)
}

// InsertOp is Insert attributed to the operation token op.
func (bd *BasicDict) InsertOp(op *pdm.Op, x pdm.Word, sat []pdm.Word) error {
	bd.mu.Lock()
	defer bd.mu.Unlock()
	defer bd.reg.m.OpSpan(op, pdm.TagInsert).End()
	sc := bd.scratch.get()
	defer bd.scratch.put(sc)
	endProbe := bd.reg.m.OpSpan(op, pdm.TagProbe)
	sc.one = bd.probeAddrs(sc, x, sc.one[:0])
	flat := bd.reg.m.BatchReadInto(&sc.buf, op, nil, sc.one)
	endProbe.End()
	writes, err := bd.insertWritesLocked(sc, x, sat, flat, sc.writes[:0])
	// Writes accompany even a failed insert of an existing key: its old
	// fragments were removed and that removal must land.
	sc.flush(bd.reg.m, op, writes)
	return err
}

// insertWrites performs the insert decision against a pre-read
// neighborhood (the blocks for probeAddrs(x)), mutating those blocks in
// place, and appends the block writes to issue to writes; the caller
// batches them, possibly together with writes of its own on other disks,
// into one parallel I/O. The count is updated as if the writes were
// applied.
func (bd *BasicDict) insertWritesLocked(sc *probeScratch, x pdm.Word, sat []pdm.Word, flat [][]pdm.Word, writes []pdm.BlockWrite) ([]pdm.BlockWrite, error) {
	if len(sat) != bd.cfg.SatWords {
		return writes, fmt.Errorf("core: satellite of %d words, config says %d", len(sat), bd.cfg.SatWords)
	}
	if uint64(x) >= bd.cfg.Universe {
		return writes, fmt.Errorf("core: key %d outside universe %d", x, bd.cfg.Universe)
	}
	existing, dirty := bd.removeKey(sc, x, flat)
	if !existing && bd.n >= bd.cfg.Capacity {
		return writes, ErrFull
	}

	// Any previous fragments of x are now removed (update semantics);
	// run the greedy placement of Section 3 on the loads as read.
	loads := sc.loads[:0]
	for i := 0; i < bd.graph.Degree(); i++ {
		loads = append(loads, bd.bucketLoad(bd.bucketOf(flat, i)))
	}
	sc.loads = loads
	chosen, ok := bd.choose(sc.chosen[:0], loads)
	sc.chosen = chosen
	if !ok {
		// No eligible neighbor has room. The on-disk buckets are
		// untouched, but if x was present we have removed its fragments
		// from the in-memory copies — return those removals as writes so
		// the structure stays consistent (x is then gone).
		if existing {
			bd.n--
			bd.noteUpdateLocked(x, nil, 0)
			return bd.collectWrites(sc, x, flat, dirty, writes), ErrFull
		}
		return writes, ErrFull
	}
	mask := bd.replicaMask(chosen)
	for j, best := range chosen {
		sc.rec = bd.choiceRecord(sc.rec, sat, j, best, mask)
		placed := false
		for _, blk := range bd.bucketOf(flat, best) {
			// AppendAlways, not Append: two fragments of x may share a
			// bucket and must both survive.
			if bd.codec.AppendAlways(blk, bucket.Record{Key: x, Sat: sc.rec}) {
				placed = true
				break
			}
		}
		if !placed {
			panic("core: load accounting disagrees with block contents")
		}
		dirty[best] = true
	}
	if !existing {
		bd.n++
	}
	bd.noteUpdateLocked(x, sat, mask)
	return bd.collectWrites(sc, x, flat, dirty, writes), nil
}

// removeKey deletes every record of x from a pre-read neighborhood, in
// place, and returns whether there was one plus the per-stripe dirty
// marks (true where a bucket changed, held in the scratch) that
// collectWrites consumes.
func (bd *BasicDict) removeKey(sc *probeScratch, x pdm.Word, flat [][]pdm.Word) (existing bool, dirty []bool) {
	dirty = sc.stripeMarks(bd.graph.Degree())
	bd.findFragments(x, flat, sc.fragSlots(bd.cfg.K), dirty)
	for i, touched := range dirty {
		if !touched {
			continue
		}
		existing = true
		for _, blk := range bd.bucketOf(flat, i) {
			for bd.codec.Remove(blk, x) {
			}
		}
	}
	return existing, dirty
}

// choose runs the greedy rule of Section 3 for one key over its
// neighbors' loads, by position: K picks, none into a full bucket. In
// replicate mode the picks must be distinct stripes (= distinct disks —
// that is the fault-tolerance guarantee); in fragment mode repeats are
// allowed.
func (bd *BasicDict) choose(dst, loads []int) ([]int, bool) {
	return loadbalance.Choose(dst, loads, bd.cfg.K, bd.cfg.BucketBlocks*bd.codec.Capacity(), bd.cfg.Replicate)
}

// replicaMask is the stripe mask of a replicate-mode placement, one bit
// per chosen neighbor position; 0 in fragment mode.
func (bd *BasicDict) replicaMask(chosen []int) uint64 {
	var mask uint64
	if bd.cfg.Replicate {
		for _, i := range chosen {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// choiceRecord returns, in dst's storage, the record stored for pick j,
// at neighbor position i: fragment j of the satellite, zero-padded to
// fragWords and prefixed by its index word, or in replicate mode a full
// copy of the satellite prefixed by its replica tag (rank + stripe
// mask).
func (bd *BasicDict) choiceRecord(dst, sat []pdm.Word, j, i int, mask uint64) []pdm.Word {
	rec := slices.Grow(dst[:0], 1+bd.fragWords)[:1+bd.fragWords]
	clear(rec)
	if bd.cfg.Replicate {
		rec[0] = replicaTag(replicaRank(mask, i), mask)
		copy(rec[1:], sat)
		return rec
	}
	rec[0] = pdm.Word(j)
	copy(rec[1:], sat[min(j*bd.fragWords, len(sat)):])
	return rec
}

// collectWrites appends the modified buckets to a write batch. With a
// striped graph, distinct neighbors live on distinct disks, so issuing
// the batch is one parallel I/O (times BucketBlocks); in the head model
// any batch is. The writes' data are the neighborhood's blocks.
func (bd *BasicDict) collectWrites(sc *probeScratch, x pdm.Word, flat [][]pdm.Word, dirty []bool, writes []pdm.BlockWrite) []pdm.BlockWrite {
	sc.ns = bd.neighbors(x, sc.ns[:0])
	for i, y := range sc.ns {
		if !dirty[i] {
			continue
		}
		disk, row := bd.bucketPos(y)
		base := row * bd.cfg.BucketBlocks
		blocks := bd.bucketOf(flat, i)
		if bd.cfg.Replicate {
			// Canonical layout: a dirty bucket is always rewritten as the
			// sorted sequential packing of its record set, so its blocks
			// are a pure function of the records — the property Repair's
			// bit-identical reconstruction rests on.
			bd.canonicalize(sc, blocks)
		}
		for b, blk := range blocks {
			writes = append(writes, pdm.BlockWrite{Addr: bd.reg.addr(disk, base+b), Data: blk})
		}
	}
	return writes
}

// Delete removes x and reports whether it was present. Cost: one read
// batch plus, when present, one write batch.
func (bd *BasicDict) Delete(x pdm.Word) bool {
	return bd.DeleteOp(nil, x)
}

// DeleteOp is Delete attributed to the operation token op.
func (bd *BasicDict) DeleteOp(op *pdm.Op, x pdm.Word) bool {
	bd.mu.Lock()
	defer bd.mu.Unlock()
	defer bd.reg.m.OpSpan(op, pdm.TagDelete).End()
	sc := bd.scratch.get()
	defer bd.scratch.put(sc)
	sc.one = bd.probeAddrs(sc, x, sc.one[:0])
	flat := bd.reg.m.BatchReadInto(&sc.buf, op, nil, sc.one)
	writes, ok := bd.deleteWritesLocked(sc, x, flat, sc.writes[:0])
	sc.flush(bd.reg.m, op, writes)
	return ok
}

// deleteWrites performs the delete decision against a pre-read
// neighborhood and appends the block writes to issue (batched by the
// caller) to writes, reporting whether the key was present. The count is
// updated as if the writes were applied.
func (bd *BasicDict) deleteWritesLocked(sc *probeScratch, x pdm.Word, flat [][]pdm.Word, writes []pdm.BlockWrite) ([]pdm.BlockWrite, bool) {
	existing, dirty := bd.removeKey(sc, x, flat)
	if !existing {
		return writes, false
	}
	bd.n--
	bd.noteUpdateLocked(x, nil, 0)
	return bd.collectWrites(sc, x, flat, dirty, writes), true
}

// MaxLoad scans the structure (without accounting I/O; diagnostics only)
// and returns the maximum bucket load, the quantity Lemma 3 bounds.
func (bd *BasicDict) MaxLoad() int {
	bd.mu.RLock()
	defer bd.mu.RUnlock()
	max := 0
	for y := 0; y < bd.buckets; y++ {
		disk, row := bd.bucketPos(y)
		load := 0
		for b := 0; b < bd.cfg.BucketBlocks; b++ {
			//lint:pdm-allow iocharge: diagnostics-only scan, documented as unaccounted
			blk := bd.reg.m.Peek(bd.reg.addr(disk, row*bd.cfg.BucketBlocks+b))
			load += bd.codec.Count(blk)
		}
		if load > max {
			max = load
		}
	}
	return max
}

// Scan calls fn for every stored record, in global bucket order,
// reading one bucket per call step (accounted). The satellite passed to
// fn is only the fragment set present in that bucket; Scan is intended
// for enumeration of keys (e.g. by the rebuilding wrapper), which uses
// fragment index 0 as the canonical sighting of a key.
func (bd *BasicDict) Scan(fn func(key pdm.Word, fragIdx int, frag []pdm.Word)) {
	bd.mu.RLock()
	defer bd.mu.RUnlock()
	defer bd.reg.m.Span(pdm.TagScan).End()
	for y := 0; y < bd.buckets; y++ {
		addrs := bd.bucketAddrs(y, nil)
		for _, blk := range bd.reg.m.BatchRead(addrs) {
			for _, rec := range bd.codec.Decode(blk) {
				fn(rec.Key, int(rec.Sat[0]), rec.Sat[1:])
			}
		}
	}
}
