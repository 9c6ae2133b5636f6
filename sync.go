package pdmdict

import (
	"slices"
	"sync"
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
	f  *front     // d's front if it has one (Dict, Basic, Dynamic, OneProbe), else nil; set by Synchronized
}

// tokenBatcher is the token-carrying batch path of Dict, Basic, Dynamic
// and OneProbe (through front), Scheduled and SyncDict itself.
type tokenBatcher interface {
	BatchLookuper
	LookupBatchCtx(c OpCtx, keys []Word) ([][]Word, []bool)
}

// Synchronized wraps d for concurrent use. The wrapped dictionary must
// not be used directly afterwards.
func Synchronized(d Dictionary) *SyncDict {
	s := &SyncDict{d: d}
	if fd, ok := d.(interface{ asFront() *front }); ok {
		s.f = fd.asFront()
	}
	return s
}

// Lookup returns a copy of key's satellite data and whether it is
// present. Safe for arbitrary concurrency with other lookups.
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

// Insert stores (key, sat), replacing any existing satellite. sat is
// never retained: a structure with a front is called directly, which
// keeps a caller's stack satellite on its stack; any other dictionary
// is handed a copy.
func (s *SyncDict) Insert(key Word, sat []Word) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		return s.f.Insert(key, sat)
	}
	return s.d.Insert(key, slices.Clone(sat))
}

// Delete removes key, reporting whether it was present.
func (s *SyncDict) Delete(key Word) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d.Delete(key)
}

// LookupBatch resolves many keys at once. When the wrapped dictionary
// has a batch path (Dict, Basic, Dynamic, OneProbe, Scheduled) the
// probes are merged into shared read rounds under ONE operation token
// it mints, so the ledger counts the batch as a single operation;
// otherwise the keys are looked up one by one under the same read lock.
func (s *SyncDict) LookupBatch(keys []Word) ([][]Word, []bool) {
	return s.LookupBatchCtx(OpCtx{}, keys)
}

// LookupBatchCtx is LookupBatch under a caller-supplied operation token;
// a zero token has the wrapped dictionary mint one. The per-key loop
// serves only the baselines, which take no tokens.
func (s *SyncDict) LookupBatchCtx(c OpCtx, keys []Word) ([][]Word, []bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tb, ok := s.d.(tokenBatcher)
	if !ok {
		sats := make([][]Word, len(keys))
		oks := make([]bool, len(keys))
		for i, k := range keys {
			sats[i], oks[i] = s.d.Lookup(k)
		}
		return sats, oks
	}
	if c.Op == nil {
		return tb.LookupBatch(keys)
	}
	return tb.LookupBatchCtx(c, keys)
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

// SetHook attaches an observability hook to the underlying dictionary.
// The write lock excludes in-flight operations, so this is safe to call
// at any time.
func (s *SyncDict) SetHook(h IOHook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.d.SetHook(h)
}
