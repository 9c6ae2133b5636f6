// Package pdm is a fixture-sized fake of pdmdict/internal/pdm: the
// analyzers match on package name, type names, and method signatures,
// so this is all they need.
package pdm

type Word = uint64

type Addr struct{ Disk, Block int }

type BlockWrite struct {
	Addr Addr
	Data []Word
}

type Event struct {
	Tag    string
	Addrs  []Addr
	Steps  int
	Depth  int
	Span   uint64
	Parent uint64
	Step   int64
}

type Hook interface{ Event(Event) }

type Machine struct{}

type Op struct{}

type ReadBuf struct{}

func (m *Machine) BatchReadInto(rb *ReadBuf, op *Op, shared []*Op, addrs []Addr) [][]Word {
	return nil
}
func (m *Machine) TryBatchReadInto(rb *ReadBuf, op *Op, shared []*Op, addrs []Addr) ([][]Word, error) {
	return nil, nil
}
func (m *Machine) TryBatchReadOp(op *Op, addrs []Addr) ([][]Word, error) { return nil, nil }
func (m *Machine) TryBatchWriteOp(op *Op, writes []BlockWrite) error     { return nil }

func (m *Machine) BatchRead(addrs []Addr) [][]Word             { return nil }
func (m *Machine) BatchWrite(writes []BlockWrite)              {}
func (m *Machine) TryBatchRead(addrs []Addr) ([][]Word, error) { return nil, nil }
func (m *Machine) TryBatchWrite(writes []BlockWrite) error     { return nil }
func (m *Machine) Peek(a Addr) []Word                          { return nil }
func (m *Machine) VerifyChecksums() []Addr                     { return nil }
func (m *Machine) SetWallClock(now any)                        {}
