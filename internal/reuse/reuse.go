// Package reuse provides Pool, the free list behind the read path's
// per-call scratch.
package reuse

import (
	"sync"
	"sync/atomic"
)

// Pool is a sync.Pool with one slot in front of it. A sync.Pool alone
// keeps its items per P and loses them to the collector, so a lone
// caller that the scheduler moves, or that idles across two collections,
// starts cold again; the slot hands that caller the same warm item back
// every time. Concurrent callers overflow into the pool, which scales
// with the Ps and lets the collector take back what a burst left behind.
// The zero value is ready to use and makes items with new(T).
type Pool[T any] struct {
	New  func() *T // optional constructor
	hot  atomic.Pointer[T]
	rest sync.Pool
}

// Get returns an idle item, or a new one.
func (p *Pool[T]) Get() *T {
	if x := p.hot.Swap(nil); x != nil {
		return x
	}
	if x, ok := p.rest.Get().(*T); ok {
		return x
	}
	if p.New != nil {
		return p.New()
	}
	return new(T)
}

// Put parks x for a later Get.
func (p *Pool[T]) Put(x *T) {
	if !p.hot.CompareAndSwap(nil, x) {
		p.rest.Put(x)
	}
}
