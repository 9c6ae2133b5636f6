package a

import "pdmfix/pdm"

func uncharged(m *pdm.Machine, a pdm.Addr) {
	m.Peek(a)                  // want `without charging parallel I/Os`
	m.VerifyChecksums()        // want `without charging parallel I/Os`
	m.BatchRead([]pdm.Addr{a}) // ok: accounted path
	_ = m.BatchRead            // ok: method value, not a call
}

type sink struct {
	addrs []pdm.Addr
	last  pdm.Event
	byTag map[string][]pdm.Addr
}

func (s *sink) Event(e pdm.Event) {
	s.addrs = e.Addrs                              // want `aliases the machine's batch buffer`
	s.last = pdm.Event{Tag: e.Tag, Addrs: e.Addrs} // want `aliases the machine's batch buffer`
	s.byTag[e.Tag] = e.Addrs                       // want `aliases the machine's batch buffer`
	local := e.Addrs                               // ok: local read within the hook call
	_ = local
	s.addrs = append([]pdm.Addr(nil), e.Addrs...) // ok: copied
	for _, a := range e.Addrs {                   // ok: read-only iteration
		_ = a
	}
}

type dict struct{}

func (dict) LookupTry(k pdm.Word) ([]pdm.Word, bool, error) { return nil, false, nil }
func (dict) Lookup(k pdm.Word) ([]pdm.Word, bool)           { return nil, false }

func discarded(m *pdm.Machine, d dict, addrs []pdm.Addr) {
	m.TryBatchRead(addrs)      // want `discarded`
	m.TryBatchWrite(nil)       // want `discarded`
	defer m.TryBatchWrite(nil) // want `go/defer`
	go m.TryBatchRead(addrs)   // want `go/defer`

	blocks, _ := m.TryBatchRead(addrs) // want `blank identifier`
	_ = blocks
	sat, ok, _ := d.LookupTry(1) // want `blank identifier`
	_, _ = sat, ok

	d.Lookup(1) // ok: the infallible path has no error to consult

	// Every TryBatchRead*/TryBatchWrite* form of the machine is covered:
	// attributed, and reading into a caller-owned buffer.
	var rb pdm.ReadBuf
	m.TryBatchReadInto(&rb, nil, nil, addrs)             // want `discarded`
	views, _ := m.TryBatchReadInto(&rb, nil, nil, addrs) // want `blank identifier`
	_ = views
	m.TryBatchReadOp(nil, addrs)              // want `discarded`
	_ = m.BatchReadInto(&rb, nil, nil, addrs) // ok: the fault-oblivious form returns no error
	go m.TryBatchWriteOp(nil, nil)            // want `go/defer`
}

// notTheMachine has a method of the family's name on another type; the
// rule binds pdm.Machine only.
type notTheMachine struct{}

func (notTheMachine) TryBatchReadInto(addrs []pdm.Addr) ([][]pdm.Word, error) { return nil, nil }

func otherReceiver(n notTheMachine) {
	n.TryBatchReadInto(nil) // ok: not a pdm.Machine method
}

func consulted(m *pdm.Machine, d dict, addrs []pdm.Addr) error {
	if _, err := m.TryBatchRead(addrs); err != nil {
		return err
	}
	if err := m.TryBatchWrite(nil); err != nil {
		return err
	}
	if _, _, err := d.LookupTry(1); err != nil {
		return err
	}
	var rb pdm.ReadBuf
	if _, err := m.TryBatchReadInto(&rb, nil, nil, addrs); err != nil {
		return err
	}
	return m.TryBatchWrite(nil) // ok: the error propagates to the caller
}
