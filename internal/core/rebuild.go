package core

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"pdmdict/internal/pdm"
)

// DictConfig parameterizes the fully dynamic dictionary.
type DictConfig struct {
	// InitialCapacity is the capacity of the first underlying structure.
	// Required. The dictionary grows without bound by global rebuilding.
	InitialCapacity int
	// SatWords is the satellite size per key, in words.
	SatWords int
	// Degree is the expander degree d; each underlying structure lives
	// on a machine with 2d disks. Theorem 7's d > 6(1+1/ɛ) applies.
	// 0 defaults to 20 (satisfying the constraint for the default ɛ).
	Degree int
	// BlockSize is B, the block capacity in words. 0 defaults to 64.
	BlockSize int
	// Epsilon is Theorem 7's performance parameter. 0 defaults to 0.5.
	Epsilon float64
	// MigrateBatch is the number of keys moved from the draining
	// structure per operation during a rebuild. 0 defaults to 4.
	MigrateBatch int
	// Universe is u; 0 defaults to 2^63.
	Universe uint64
	// OneProbe selects the Section 6 one-probe structure as the bounded
	// building block instead of the Theorem 7 cascade: lookups stay at
	// exactly one parallel I/O even across rebuilds (the draining and
	// filling structures answer in the same parallel step), at twice the
	// disks.
	OneProbe bool
	// Seed selects the expanders; each rebuild generation derives a new
	// seed so a pathological key set cannot chase the structure forever.
	Seed uint64
}

func (c *DictConfig) normalize() error {
	if c.InitialCapacity <= 0 {
		return fmt.Errorf("core: DictConfig.InitialCapacity = %d, must be positive", c.InitialCapacity)
	}
	if c.Degree == 0 {
		c.Degree = 20
	}
	if c.BlockSize == 0 {
		c.BlockSize = 64
	}
	if c.MigrateBatch == 0 {
		c.MigrateBatch = 4
	}
	if c.MigrateBatch < 1 {
		return fmt.Errorf("core: MigrateBatch %d below 1", c.MigrateBatch)
	}
	return nil
}

// DictStats aggregates per-operation costs under the wrapper's cost
// model: the two underlying structures occupy disjoint disks ("we can
// make any constant number of parallel instances of our dictionaries"),
// so an operation that touches both costs the maximum of the two
// machines' parallel I/Os, not the sum. Every operation carries an
// explicit token (pdm.Op) with per-machine step counters, so the ledger
// is exact even under concurrent callers: each op is charged precisely
// the batches it issued, never a neighbor's.
type DictStats struct {
	// Ops is the number of Lookup/Insert/Delete calls served (batched
	// lookups count one per key).
	Ops int64
	// ParallelIOs is the total cost: the sum over operations of the
	// steps charged to their tokens.
	ParallelIOs int64
	// WorstOp is the largest per-key cost observed: ⌈steps/keys⌉ for
	// every operation, batched or not. Global rebuilding keeps this a
	// constant — the point of the Overmars–van Leeuwen technique the
	// paper invokes.
	WorstOp int64
	// Rebuilds counts completed migrations.
	Rebuilds int64
}

// rebuildable is the contract the global-rebuilding wrapper needs from
// a bounded-capacity structure: the dictionary operations plus access
// to its machine (for cost accounting) and its membership
// sub-dictionary (for the migration cursor). DynamicDict (Theorem 7)
// and OneProbeDict (Section 6) both satisfy it through their cascade.
type rebuildable interface {
	LookupOp(op *pdm.Op, x pdm.Word) ([]pdm.Word, bool)
	LookupBatchInto(op *pdm.Op, shared []*pdm.Op, keys []pdm.Word, sats [][]pdm.Word, oks []bool)
	InsertOp(op *pdm.Op, x pdm.Word, sat []pdm.Word) error
	DeleteOp(op *pdm.Op, x pdm.Word) bool
	Len() int
	Capacity() int
	Snapshot(w io.Writer) error
	machine() *pdm.Machine
	membership() *BasicDict
}

// Dict is the fully dynamic dictionary of Section 4's introduction:
// a bounded structure (Theorem 7's cascade by default, or the Section 6
// one-probe structure) made unbounded and deletion-friendly by
// worst-case global rebuilding. When the active structure reaches its
// capacity, a successor of twice the capacity is created on fresh disks,
// every subsequent operation migrates a constant number of keys, and
// both structures answer queries in parallel until the old one drains.
type Dict struct {
	// mu makes the wrapper safe for concurrent use: lookups (which
	// mutate nothing but the statsMu-guarded ledger) share a read lock,
	// while updates — which may swap the active/next structures mid-call
	// — are exclusive.
	mu         sync.RWMutex
	cfg        DictConfig
	generation uint64 // guarded by mu

	// hook is re-applied to every machine a rebuild creates, so traces
	// span generations.
	hook pdm.Hook // guarded by mu

	// injector, like hook, follows the dictionary across rebuild
	// generations.
	injector pdm.FaultInjector // guarded by mu

	active rebuildable // guarded by mu
	next   rebuildable // guarded by mu

	// Migration cursor over active's membership buckets (global bucket
	// index).
	curBucket int // guarded by mu

	// statsMu guards stats: lookups are otherwise read-only and may run
	// concurrently (under a reader lock), but every operation updates
	// the cost ledger.
	statsMu sync.Mutex
	stats   DictStats // guarded by statsMu

	// nextOp mints operation tokens. The Dict owns its own counter (not
	// the machines') so IDs survive rebuild generations and stay unique
	// across both live machines.
	nextOp atomic.Uint64

	scratch scratchPool
}

// NewDict creates an empty dictionary.
func NewDict(cfg DictConfig) (*Dict, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	d := &Dict{cfg: cfg}
	active, err := d.newStructureLocked(cfg.InitialCapacity)
	if err != nil {
		return nil, err
	}
	d.active = active
	return d, nil
}

func (d *Dict) newStructureLocked(capacity int) (rebuildable, error) {
	d.generation++
	seed := d.cfg.Seed + d.generation*0x9e3779b97f4a7c15
	if d.cfg.OneProbe {
		levels := 3
		m := pdm.NewMachine(pdm.Config{D: (levels + 1) * d.cfg.Degree, B: d.cfg.BlockSize})
		m.SetHook(d.hook)
		m.SetFaultInjector(d.injector)
		return NewOneProbe(m, OneProbeConfig{
			Capacity: capacity,
			SatWords: d.cfg.SatWords,
			Levels:   levels,
			Universe: d.cfg.Universe,
			Seed:     seed,
		})
	}
	m := pdm.NewMachine(pdm.Config{D: 2 * d.cfg.Degree, B: d.cfg.BlockSize})
	m.SetHook(d.hook)
	m.SetFaultInjector(d.injector)
	return NewDynamic(m, DynamicConfig{
		Capacity: capacity,
		SatWords: d.cfg.SatWords,
		Epsilon:  d.cfg.Epsilon,
		Universe: d.cfg.Universe,
		Seed:     seed,
	})
}

// SatWords returns the satellite size per key, in words.
func (d *Dict) SatWords() int { return d.cfg.SatWords }

// Len returns the number of keys stored across both structures.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := d.active.Len()
	if d.next != nil {
		n += d.next.Len()
	}
	return n
}

// Stats returns the accumulated operation costs.
func (d *Dict) Stats() DictStats {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	return d.stats
}

// Migrating reports whether a rebuild is in progress.
func (d *Dict) Migrating() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.next != nil
}

// SetHook attaches h to the machines of both live structures and to
// every machine created by future rebuilds. A nil h detaches.
func (d *Dict) SetHook(h pdm.Hook) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.hook = h
	d.active.machine().SetHook(h)
	if d.next != nil {
		d.next.machine().SetHook(h)
	}
}

// SetFaultInjector attaches fi to the machines of both live structures
// and to every machine created by future rebuilds. A nil fi detaches.
func (d *Dict) SetFaultInjector(fi pdm.FaultInjector) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.injector = fi
	d.active.machine().SetFaultInjector(fi)
	if d.next != nil {
		d.next.machine().SetFaultInjector(fi)
	}
}

// Degraded reports whether either live structure's machine has observed
// a data-threatening fault since its degraded flag was last cleared.
func (d *Dict) Degraded() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.active.machine().Degraded() {
		return true
	}
	return d.next != nil && d.next.machine().Degraded()
}

// MintOp creates a fresh operation token for client, covering keys
// keys. Callers that want per-client attribution mint a token and pass
// it to the *Op entry points; the plain entry points mint their own
// (client 0) internally.
func (d *Dict) MintOp(client, keys int) *pdm.Op {
	return pdm.MakeOp(d.nextOp.Add(1), client, keys)
}

// measureOpLocked runs fn under the root span (tag) of op — or of each
// token of shared, the participants of a shared round — and charges the
// ledger exactly what each token was charged: max across the two
// machines of the parallel I/O steps of the batches fn issued,
// attributed through the token's per-machine lane counters. The
// attribution is exact under arbitrary concurrency — each token counts
// only its own batches, never a neighbor's. op (minted for client 0 if
// nil) counts as n Ops (a batch counts one per key) and WorstOp tracks
// the per-key ceiling ⌈cost/n⌉; each participant counts as one Op. A
// token minted here is released once the ledger has read it.
func (d *Dict) measureOpLocked(op *pdm.Op, shared []*pdm.Op, tag pdm.Tag, n int, fn func(op *pdm.Op) error) error {
	parts := shared
	var minted *pdm.Op
	if len(shared) == 0 {
		if op == nil {
			op = d.MintOp(0, n)
			minted = op
		}
		parts = []*pdm.Op{op}
	} else {
		n = 1
	}
	var beforeBuf [8]int64
	var endBuf [8]pdm.SpanEnd
	befores, ends := beforeBuf[:0], endBuf[:0]
	for _, o := range parts {
		befores = append(befores, o.MaxMachineSteps())
		ends = append(ends, d.active.machine().OpSpan(o, tag))
	}
	err := fn(op)
	for i := len(ends) - 1; i >= 0; i-- {
		ends[i].End()
	}
	d.statsMu.Lock()
	for i, o := range parts {
		cost := o.MaxMachineSteps() - befores[i]
		d.stats.Ops += int64(n)
		d.stats.ParallelIOs += cost
		if n > 0 {
			if per := (cost + int64(n) - 1) / int64(n); per > d.stats.WorstOp {
				d.stats.WorstOp = per
			}
		}
	}
	d.statsMu.Unlock()
	pdm.ReleaseOp(minted)
	return err
}

// Lookup returns a copy of x's satellite and whether x is present.
func (d *Dict) Lookup(x pdm.Word) (sat []pdm.Word, ok bool) {
	return d.LookupOp(nil, x)
}

// LookupOp is Lookup attributed to the operation token op: the spans
// and batches it issues carry the op's ID, and the op is charged the
// operation's exact parallel I/O cost. A nil op mints an anonymous
// (client 0) token.
func (d *Dict) LookupOp(op *pdm.Op, x pdm.Word) (sat []pdm.Word, ok bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	sc := d.scratch.get()
	defer d.scratch.put(sc)
	sc.key[0] = x
	d.lookupLocked(sc, op, nil, sc.key[:], sc.sat[:], sc.ok[:])
	return sc.sat[0], sc.ok[0]
}

// Contains reports whether x is present.
func (d *Dict) Contains(x pdm.Word) bool {
	_, ok := d.Lookup(x)
	return ok
}

// LookupBatchInto resolves many keys as one batched operation, into
// caller-owned results attributed as BasicDict.LookupBatchInto
// describes: each underlying structure answers with its own merged read
// rounds, and during a migration the draining structure is consulted
// only for the keys the successor misses. A nil op mints an anonymous
// client-0 token. The ledger gains len(keys) Ops but the batch's
// (amortized) cost; a shared round adds one ledger Op per participant,
// charged the rounds it rode.
func (d *Dict) LookupBatchInto(op *pdm.Op, shared []*pdm.Op, keys []pdm.Word, sats [][]pdm.Word, oks []bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	sc := d.scratch.get()
	defer d.scratch.put(sc)
	d.lookupLocked(sc, op, shared, keys, sats, oks)
}

// lookupLocked is the wrapper's one lookup body. The filling structure
// (if a migration is in flight) answers first, and only the keys it
// misses, with their tokens in a shared round, ride a lookup of the
// draining structure. A key either structure answers is written into
// the caller's sats[i] when it has room, as the structures do.
func (d *Dict) lookupLocked(sc *probeScratch, op *pdm.Op, shared []*pdm.Op, keys []pdm.Word, sats [][]pdm.Word, oks []bool) {
	d.measureOpLocked(op, shared, pdm.TagLookup, len(keys), func(op *pdm.Op) error {
		if d.next == nil {
			d.active.LookupBatchInto(op, shared, keys, sats, oks)
			return nil
		}
		// The filling structure nils a miss's entry, so the caller's
		// slices are set aside first for the draining structure.
		sc.missSats = append(sc.missSats[:0], sats...)
		d.next.LookupBatchInto(op, shared, keys, sats, oks)
		sc.missKeys, sc.ops = sc.missKeys[:0], sc.ops[:0]
		for i, ok := range oks {
			if !ok {
				sc.missSats[len(sc.missKeys)] = sc.missSats[i]
				sc.missKeys = append(sc.missKeys, keys[i])
				if len(shared) > 0 {
					sc.ops = append(sc.ops, shared[i])
				}
			}
		}
		n := len(sc.missKeys)
		clear(sc.missSats[n:])
		sc.missSats = sc.missSats[:n]
		if n == 0 {
			return nil
		}
		sc.missOks = slices.Grow(sc.missOks[:0], n)[:n]
		d.active.LookupBatchInto(op, sc.ops, sc.missKeys, sc.missSats, sc.missOks)
		j := 0
		for i := range oks {
			if !oks[i] {
				sats[i], oks[i] = sc.missSats[j], sc.missOks[j]
				j++
			}
		}
		clear(sc.ops)
		return nil
	})
}

// Insert stores (x, sat), replacing any previous satellite for x.
func (d *Dict) Insert(x pdm.Word, sat []pdm.Word) error {
	return d.InsertOp(nil, x, sat)
}

// InsertOp is Insert attributed to the operation token op.
func (d *Dict) InsertOp(op *pdm.Op, x pdm.Word, sat []pdm.Word) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.measureOpLocked(op, nil, pdm.TagInsert, 1, func(op *pdm.Op) error {
		if d.next == nil && d.active.Len() >= d.active.Capacity() {
			if err := d.startMigrationLocked(); err != nil {
				return err
			}
		}
		var err error
		if d.next != nil {
			err = d.next.InsertOp(op, x, sat)
			if err == nil {
				d.active.DeleteOp(op, x) // drop any stale copy
			}
		} else {
			err = d.active.InsertOp(op, x, sat)
			if err == ErrFull {
				// Expansion failure below capacity: rebuild immediately
				// with a new seed and land the insert in the successor.
				if merr := d.startMigrationLocked(); merr != nil {
					return merr
				}
				err = d.next.InsertOp(op, x, sat)
			}
		}
		if err != nil {
			return err
		}
		d.migrateStepLocked(op)
		return nil
	})
}

// Delete removes x and reports whether it was present.
func (d *Dict) Delete(x pdm.Word) (present bool) {
	return d.DeleteOp(nil, x)
}

// DeleteOp is Delete attributed to the operation token op.
func (d *Dict) DeleteOp(op *pdm.Op, x pdm.Word) (present bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.measureOpLocked(op, nil, pdm.TagDelete, 1, func(op *pdm.Op) error {
		if d.next != nil && d.next.DeleteOp(op, x) {
			present = true
		} else {
			present = d.active.DeleteOp(op, x)
		}
		d.migrateStepLocked(op)
		return nil
	})
	return present
}

// startMigration creates the successor structure of twice the current
// capacity (at least enough for the current content) and resets the
// cursor.
func (d *Dict) startMigrationLocked() error {
	capacity := 2 * d.active.Capacity()
	if capacity < d.active.Len()+1 {
		capacity = d.active.Len() + 1
	}
	next, err := d.newStructureLocked(capacity)
	if err != nil {
		return err
	}
	d.next = next
	d.curBucket = 0
	return nil
}

// migrateStep moves up to MigrateBatch keys from active to next, then
// finishes the migration once active is empty. The work per call is
// strictly bounded: at most MigrateBatch key moves AND at most
// 4·MigrateBatch bucket probes (empty buckets consume a probe but not a
// move), so the per-operation worst case stays constant even when the
// draining structure is nearly empty.
func (d *Dict) migrateStepLocked(op *pdm.Op) {
	if d.next == nil {
		return
	}
	// Migration I/O nests under the foreground operation's token: the
	// rebuild span rides op's private stack, so every batch below — on
	// either machine — is tagged <fg>.rebuild.* and charged to op. The
	// per-tag breakdown still separates rebuild traffic from the
	// foreground operation, and the charge lands on the operation that
	// performed the migration work, exactly as the amortization argument
	// charges it.
	defer d.active.machine().OpSpan(op, pdm.TagRebuild).End()
	sc := d.scratch.get()
	defer d.scratch.put(sc)
	memb := d.active.membership()
	moved, probes := 0, 0
	for moved < d.cfg.MigrateBatch && probes < 4*d.cfg.MigrateBatch && d.active.Len() > 0 {
		probes++
		if d.curBucket >= memb.Buckets() {
			break // cursor exhausted; remaining keys were deleted concurrently
		}
		sc.one = memb.bucketAddrs(d.curBucket, sc.one[:0])
		var key pdm.Word
		found := false
		for _, blk := range memb.reg.m.BatchReadInto(&sc.buf, op, nil, sc.one) {
			if memb.codec.Count(blk) > 0 {
				key = blk[1] // the first record's key follows the count word
				found = true
				break
			}
		}
		if !found {
			d.curBucket++
			continue
		}
		sat, ok := d.active.LookupOp(op, key)
		if ok {
			if err := d.next.InsertOp(op, key, sat); err != nil {
				// The successor refused (pathological); leave the key in
				// place and retry on a later step.
				return
			}
		}
		d.active.DeleteOp(op, key)
		moved++
	}
	if d.active.Len() == 0 {
		d.active = d.next
		d.next = nil
		d.statsMu.Lock()
		d.stats.Rebuilds++
		d.statsMu.Unlock()
	}
}

// StepCount returns the active structure's machine step counter — the
// deterministic logical clock the scheduler's step-budget admission
// window runs on.
func (d *Dict) StepCount() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.active.machine().StepCount()
}
