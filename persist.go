package pdmdict

import (
	"io"

	"pdmdict/internal/core"
)

// Persistence: every structure can be written to an io.Writer and
// restored later. A snapshot contains the configuration, the counters,
// and the full contents of the simulated disks, so the restored
// structure is bit-identical — including its I/O statistics.

// Save writes a snapshot of the dictionary.
func (b *Basic) Save(w io.Writer) error { return b.d.Snapshot(w) }

// OpenBasic restores a Basic from a Save stream.
func OpenBasic(r io.Reader) (*Basic, error) {
	d, m, err := core.LoadBasic(r)
	if err != nil {
		return nil, err
	}
	return &Basic{machineStats{m}, machineFront(d, m), d}, nil
}

// Save writes a snapshot of the dictionary.
func (d *Dynamic) Save(w io.Writer) error { return d.d.Snapshot(w) }

// OpenDynamic restores a Dynamic from a Save stream.
func OpenDynamic(r io.Reader) (*Dynamic, error) {
	dd, m, err := core.LoadDynamic(r)
	if err != nil {
		return nil, err
	}
	return &Dynamic{machineStats{m}, machineFront(dd, m), dd}, nil
}

// Save writes a snapshot of the dictionary.
func (s *Static) Save(w io.Writer) error { return s.d.Snapshot(w) }

// OpenStatic restores a Static from a Save stream.
func OpenStatic(r io.Reader) (*Static, error) {
	sd, m, err := core.LoadStatic(r)
	if err != nil {
		return nil, err
	}
	return &Static{machineStats{m}, sd}, nil
}

// Save writes a snapshot of the dictionary, including an in-progress
// migration if one is running.
func (d *Dict) Save(w io.Writer) error { return d.d.Snapshot(w) }

// OpenDict restores a Dict from a Save stream; a saved migration
// resumes where it left off.
func OpenDict(r io.Reader) (*Dict, error) {
	dd, err := core.LoadDict(r)
	if err != nil {
		return nil, err
	}
	return newDict(dd), nil
}
