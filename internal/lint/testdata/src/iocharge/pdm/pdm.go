// Package pdm stands in for the machine's own package, where iocharge
// waives the accounting and aliasing checks (the package owns the
// backing storage and the batch buffer) but still requires every batch
// error to be consulted.
package pdm

type Word = uint64

type Addr struct{ Disk, Block int }

type Event struct{ Addrs []Addr }

type Machine struct{}

func (m *Machine) TryBatchRead(addrs []Addr) ([][]Word, error) { return nil, nil }
func (m *Machine) TryBatchWrite(data [][]Word) error           { return nil }
func (m *Machine) Peek(a Addr) []Word                          { return nil }
func (m *Machine) VerifyChecksums() []Addr                     { return nil }

type recorder struct{ addrs []Addr }

func (r *recorder) Event(e Event) {
	r.addrs = e.Addrs // ok: the machine's own package may hold its buffer
}

func (m *Machine) repair(a Addr) error {
	_ = m.Peek(a)                    // ok: the machine's own package charges its own I/Os
	m.VerifyChecksums()              // ok: likewise
	m.TryBatchRead([]Addr{a})        // want `discarded`
	blocks, _ := m.TryBatchRead(nil) // want `blank identifier`
	defer m.TryBatchWrite(blocks)    // want `go/defer`
	if _, err := m.TryBatchRead(nil); err != nil {
		return err
	}
	return m.TryBatchWrite(nil) // ok: the error propagates to the caller
}
