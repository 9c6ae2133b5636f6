package pdmdict

import (
	"sync"

	"pdmdict/internal/obs"
)

// SyncDict wraps any Dictionary for concurrent use: lookups run
// concurrently with each other (readers take a shared lock; the
// simulated machine is itself thread-safe) while mutations are
// exclusive. This matches the paper's observation that the structures
// suit concurrent environments — lookups go straight to the relevant
// blocks and inserted data never moves, so coarse reader-writer locking
// is already contention-light.
type SyncDict struct {
	mu sync.RWMutex
	d  Dictionary // guarded by mu
}

// Synchronized wraps d for concurrent use. The wrapped dictionary must
// not be used directly afterwards.
func Synchronized(d Dictionary) *SyncDict { return &SyncDict{d: d} }

// Lookup returns a copy of key's satellite data and whether it is
// present. Safe for arbitrary concurrency with other lookups.
//
//lint:pdm-allow opctx: delegates to an inner Dictionary whose own entry points mint tokens
func (s *SyncDict) Lookup(key Word) ([]Word, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.d.Lookup(key)
}

// Contains reports whether key is present.
func (s *SyncDict) Contains(key Word) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.d.Contains(key)
}

// Insert stores (key, sat), replacing any existing satellite.
//
//lint:pdm-allow opctx: delegates to an inner Dictionary whose own entry points mint tokens
func (s *SyncDict) Insert(key Word, sat []Word) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d.Insert(key, sat)
}

// Delete removes key, reporting whether it was present.
//
//lint:pdm-allow opctx: delegates to an inner Dictionary whose own entry points mint tokens
func (s *SyncDict) Delete(key Word) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d.Delete(key)
}

// opMinter is satisfied by the structures SyncDict can mint batch
// tokens on behalf of (every dictionary in this package).
type opMinter interface {
	MintOp(client, keys int, tag string) OpCtx
}

// LookupBatch resolves many keys at once. When the wrapped dictionary
// is a BatchLookuper the probes are merged into shared read rounds under
// ONE batch-scoped operation token (when the inner dictionary can mint
// one), so the ledger counts the batch as a single operation; otherwise
// the keys are looked up one by one under the same read lock.
func (s *SyncDict) LookupBatch(keys []Word) ([][]Word, []bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var c OpCtx
	if m, ok := s.d.(opMinter); ok {
		c = m.MintOp(0, len(keys), obs.TagLookup)
	}
	return s.lookupBatchLocked(c, keys)
}

// LookupBatchCtx is LookupBatch under a caller-supplied operation
// token, for parity with the concrete dictionaries.
func (s *SyncDict) LookupBatchCtx(c OpCtx, keys []Word) ([][]Word, []bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lookupBatchLocked(c, keys)
}

// lookupBatchLocked runs the batch under s.mu: the inner dictionary's
// own batch path when it has one (under the batch token when there is
// one), else the per-key loop. Every dictionary with a token-taking
// single-key lookup also has a batch path, so the loop only serves the
// baselines, which mint no tokens.
func (s *SyncDict) lookupBatchLocked(c OpCtx, keys []Word) ([][]Word, []bool) {
	type batchCtxLookuper interface {
		LookupBatchCtx(OpCtx, []Word) ([][]Word, []bool)
	}
	if bl, ok := s.d.(batchCtxLookuper); ok && c.Op != nil {
		return bl.LookupBatchCtx(c, keys)
	}
	if bl, ok := s.d.(BatchLookuper); ok {
		return bl.LookupBatch(keys)
	}
	sats := make([][]Word, len(keys))
	oks := make([]bool, len(keys))
	for i, k := range keys {
		sats[i], oks[i] = s.d.Lookup(k)
	}
	return sats, oks
}

// Len returns the number of stored keys.
func (s *SyncDict) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.d.Len()
}

// IOStats returns the accumulated disk traffic.
func (s *SyncDict) IOStats() IOStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.d.IOStats()
}

// SetHook attaches an observability hook to the underlying dictionary,
// if it supports one. The write lock excludes in-flight operations, so
// this is safe to call at any time.
func (s *SyncDict) SetHook(h IOHook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if hooked, ok := s.d.(Hooked); ok {
		hooked.SetHook(h)
	}
}
