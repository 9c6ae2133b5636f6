package obs

import (
	"sync"

	"pdmdict/internal/pdm"
)

// Ring is a fixed-capacity event buffer that keeps the most recent
// events, overwriting the oldest once full. Each slot owns the backing
// arrays of its event's Addrs and Ops, and Event copies the caller's
// slices into them (the machine only guarantees them during the hook
// call), so a full ring retains events without allocating. Safe for
// concurrent use.
type Ring struct {
	mu    sync.Mutex
	buf   []pdm.Event
	next  int
	total int64
}

// NewRing returns a ring holding up to n events (n ≥ 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]pdm.Event, 0, n)}
}

// Event implements pdm.Hook.
func (r *Ring) Event(e pdm.Event) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, pdm.Event{})
	}
	slot := &r.buf[r.next]
	addrs, ops := append(slot.Addrs[:0], e.Addrs...), append(slot.Ops[:0], e.Ops...)
	*slot = e
	slot.Addrs, slot.Ops = addrs, ops
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
	r.mu.Unlock()
}

// Events returns deep copies of the retained events, oldest first.
func (r *Ring) Events() []pdm.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]pdm.Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...) // empty until the ring wraps
	out = append(out, r.buf[:r.next]...)
	for i := range out {
		out[i] = cloneEvent(out[i])
	}
	return out
}

// cloneEvent returns e with fresh copies of its Addrs and Ops (nil when
// empty), so the result shares no memory with a consumer's storage.
func cloneEvent(e pdm.Event) pdm.Event {
	e.Addrs = append([]pdm.Addr(nil), e.Addrs...)
	e.Ops = append([]uint64(nil), e.Ops...)
	return e
}

// Total returns how many events have passed through, including those
// already overwritten.
func (r *Ring) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
