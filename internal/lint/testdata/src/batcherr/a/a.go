package a

import "pdmfix/pdm"

type dict struct{}

func (dict) LookupTry(k pdm.Word) ([]pdm.Word, bool, error) { return nil, false, nil }
func (dict) ContainsTry(k pdm.Word) (bool, error)           { return false, nil }
func (dict) Lookup(k pdm.Word) ([]pdm.Word, bool)           { return nil, false }

func bad(m *pdm.Machine, d dict, addrs []pdm.Addr) {
	m.TryBatchRead(addrs)      // want `discarded`
	m.TryBatchWrite(nil)       // want `discarded`
	defer m.TryBatchWrite(nil) // want `go/defer`
	go m.TryBatchRead(addrs)   // want `go/defer`

	blocks, _ := m.TryBatchRead(addrs) // want `blank identifier`
	_ = blocks
	sat, ok, _ := d.LookupTry(1) // want `blank identifier`
	_, _ = sat, ok
	has, _ := d.ContainsTry(2) // want `blank identifier`
	_ = has

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

func good(m *pdm.Machine, d dict, addrs []pdm.Addr) error {
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
