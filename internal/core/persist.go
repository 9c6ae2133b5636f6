package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"pdmdict/internal/pdm"
)

// Persistence: each dictionary saves a small JSON header (its
// configuration plus the counters that are not derivable from disk
// contents) followed by its machine's snapshot. Loading re-runs the
// deterministic layout code on the restored configuration, so the
// reconstructed structure addresses the restored blocks identically.
// JSON keeps no process-wide state, so the bytes of a Save depend only
// on the structure saved, not on what the process encoded before.
//
// Every part is framed with a length prefix: both the JSON decoder and
// the snapshot reader buffer ahead, so consecutive unframed sections on
// one stream would corrupt each other.

// writeSection frames whatever fill produces with a little-endian
// uint64 length.
func writeSection(w io.Writer, fill func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := fill(&buf); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(buf.Len())); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// readSection returns a reader over exactly one framed section.
func readSection(r io.Reader) (*bytes.Reader, error) {
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("core: reading section length: %w", err)
	}
	const maxSection = 1 << 34 // 16 GiB; far beyond any simulated machine
	if n > maxSection {
		return nil, fmt.Errorf("core: section length %d implausible; corrupt snapshot", n)
	}
	// The length field is untrusted: stream the body in, so a huge value
	// fails at the stream's real end instead of sizing one giant
	// allocation up front.
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		return nil, fmt.Errorf("core: reading section body: %w", err)
	}
	return bytes.NewReader(buf.Bytes()), nil
}

// encodeHeader JSON-encodes v into one framed section.
func encodeHeader(w io.Writer, v interface{}) error {
	return writeSection(w, func(sw io.Writer) error {
		return json.NewEncoder(sw).Encode(v)
	})
}

// decodeHeader reads one framed section and JSON-decodes it into v.
func decodeHeader(r io.Reader, v interface{}) error {
	sec, err := readSection(r)
	if err != nil {
		return err
	}
	return json.NewDecoder(sec).Decode(v)
}

// writeMachine frames a machine snapshot.
func writeMachine(w io.Writer, m *pdm.Machine) error {
	return writeSection(w, m.WriteSnapshot)
}

// readMachine reads one framed machine snapshot. pdm.ReadSnapshot
// validates the embedded pdm.Config (and rejects implausible
// dimensions) before allocating any disk state, so corrupt headers fail
// with a clear error here instead of an index panic later.
func readMachine(r io.Reader) (*pdm.Machine, error) {
	sec, err := readSection(r)
	if err != nil {
		return nil, err
	}
	return pdm.ReadSnapshot(sec)
}

// checkCount validates an untrusted element count from a snapshot
// header against a structural bound.
func checkCount(what string, n, max int) error {
	if n < 0 || n > max {
		return fmt.Errorf("core: snapshot %s = %d outside [0,%d]; corrupt snapshot", what, n, max)
	}
	return nil
}

// layoutVersion is the field layout a cascade's or a StaticDict's
// snapshot header records. Version 2 packs each field at its bit width;
// version 1, whose headers carry no Version, padded every field to whole
// words. Loading re-runs the current layout code, under which another
// version's blocks would decode as garbage, so loaders refuse it.
const layoutVersion = 2

// checkLayout refuses a snapshot header of another layout version.
func checkLayout(what string, v int) error {
	if v == layoutVersion {
		return nil
	}
	if v == 0 {
		v = 1 // written before headers carried a version
	}
	return fmt.Errorf("core: %s snapshot has field layout version %d; this build reads version %d only", what, v, layoutVersion)
}

// basicHeader is the durable metadata of a BasicDict.
type basicHeader struct {
	Cfg    BasicConfig
	N      int
	Disk0  int
	NDisks int
	Block0 int
}

// Snapshot writes the dictionary and its machine to w. Dictionaries
// running on a caller-supplied graph cannot be snapshotted: the graph's
// representation is owned by the caller, not by the snapshot format.
func (bd *BasicDict) Snapshot(w io.Writer) error {
	bd.mu.RLock()
	defer bd.mu.RUnlock()
	if bd.cfg.Graph != nil || bd.cfg.UnstripedGraph != nil {
		return fmt.Errorf("core: cannot snapshot a dictionary with a caller-supplied graph")
	}
	if err := encodeHeader(w, basicHeader{
		Cfg: bd.cfg, N: bd.n,
		Disk0: bd.reg.disk0, NDisks: bd.reg.nDisks, Block0: bd.reg.block0,
	}); err != nil {
		return fmt.Errorf("core: encoding BasicDict header: %w", err)
	}
	return writeMachine(w, bd.reg.m)
}

// LoadBasic restores a BasicDict (and its machine) from a Snapshot
// stream.
func LoadBasic(r io.Reader) (*BasicDict, *pdm.Machine, error) {
	var h basicHeader
	if err := decodeHeader(r, &h); err != nil {
		return nil, nil, fmt.Errorf("core: decoding BasicDict header: %w", err)
	}
	m, err := readMachine(r)
	if err != nil {
		return nil, nil, err
	}
	if h.Disk0 < 0 || h.NDisks < 1 || h.Block0 < 0 || h.Disk0+h.NDisks > m.D() {
		return nil, nil, fmt.Errorf("core: snapshot region [%d,%d)+%d outside machine of %d disks; corrupt snapshot",
			h.Disk0, h.Disk0+h.NDisks, h.Block0, m.D())
	}
	bd, err := newBasicAt(region{m: m, disk0: h.Disk0, nDisks: h.NDisks, block0: h.Block0}, h.Cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := checkCount("key count", h.N, bd.cfg.Capacity); err != nil {
		return nil, nil, err
	}
	bd.mu.Lock()
	bd.n = h.N
	bd.mu.Unlock()
	return bd, m, nil
}

// dynamicHeader is the durable metadata of a DynamicDict. JSON writes
// each field's name into the stream, so its fields and oneProbeHeader's
// keep their names.
type dynamicHeader struct {
	Version     int
	Cfg         DynamicConfig
	N           int
	MembN       int
	LevelCounts []int
}

// Snapshot writes the dictionary and its machine to w.
func (dd *DynamicDict) Snapshot(w io.Writer) error {
	return dd.snapshot(w, "DynamicDict", func(n, membN int, counts []int) any {
		return dynamicHeader{Version: layoutVersion, Cfg: dd.cfg, N: n, MembN: membN, LevelCounts: counts}
	})
}

// LoadDynamic restores a DynamicDict (and its machine) from a Snapshot
// stream.
func LoadDynamic(r io.Reader) (*DynamicDict, *pdm.Machine, error) {
	var h dynamicHeader
	if err := decodeHeader(r, &h); err != nil {
		return nil, nil, fmt.Errorf("core: decoding DynamicDict header: %w", err)
	}
	if err := checkLayout("DynamicDict", h.Version); err != nil {
		return nil, nil, err
	}
	m, err := readMachine(r)
	if err != nil {
		return nil, nil, err
	}
	dd, err := NewDynamic(m, h.Cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := dd.restore(h.N, h.MembN, h.LevelCounts); err != nil {
		return nil, nil, err
	}
	return dd, m, nil
}

// staticHeader is the durable metadata of a StaticDict.
type staticHeader struct {
	Version int
	Cfg     StaticConfig
	N       int
	Build   pdm.Stats
}

// Snapshot writes the dictionary and its machine to w.
func (sd *StaticDict) Snapshot(w io.Writer) error {
	if err := encodeHeader(w, staticHeader{Version: layoutVersion, Cfg: sd.cfg, N: sd.n, Build: sd.ConstructionIOs}); err != nil {
		return fmt.Errorf("core: encoding StaticDict header: %w", err)
	}
	return writeMachine(w, sd.c.m)
}

// LoadStatic restores a StaticDict (and its machine) from a Snapshot
// stream.
func LoadStatic(r io.Reader) (*StaticDict, *pdm.Machine, error) {
	var h staticHeader
	if err := decodeHeader(r, &h); err != nil {
		return nil, nil, fmt.Errorf("core: decoding StaticDict header: %w", err)
	}
	if err := checkLayout("StaticDict", h.Version); err != nil {
		return nil, nil, err
	}
	// layout() trusts the config (the build path normalized it), so a
	// loaded one must be re-validated before any sizing math runs on it.
	if err := h.Cfg.normalize(); err != nil {
		return nil, nil, fmt.Errorf("core: snapshot config invalid: %w", err)
	}
	m, err := readMachine(r)
	if err != nil {
		return nil, nil, err
	}
	if h.N < 0 {
		return nil, nil, fmt.Errorf("core: snapshot key count %d negative; corrupt snapshot", h.N)
	}
	sd := &StaticDict{cfg: h.Cfg, n: h.N, ConstructionIOs: h.Build}
	if err := sd.layout(m); err != nil {
		return nil, nil, err
	}
	if sd.c.memb != nil {
		sd.c.memb.n = h.N
	}
	return sd, m, nil
}

// oneProbeHeader is the durable metadata of a OneProbeDict.
type oneProbeHeader struct {
	Version     int
	Cfg         OneProbeConfig
	N           int
	MembN       int
	LevelCounts []int
}

// Snapshot writes the dictionary and its machine to w.
func (op *OneProbeDict) Snapshot(w io.Writer) error {
	return op.snapshot(w, "OneProbeDict", func(n, membN int, counts []int) any {
		return oneProbeHeader{Version: layoutVersion, Cfg: op.cfg, N: n, MembN: membN, LevelCounts: counts}
	})
}

// LoadOneProbe restores a OneProbeDict (and its machine) from a
// Snapshot stream.
func LoadOneProbe(r io.Reader) (*OneProbeDict, *pdm.Machine, error) {
	var h oneProbeHeader
	if err := decodeHeader(r, &h); err != nil {
		return nil, nil, fmt.Errorf("core: decoding OneProbeDict header: %w", err)
	}
	if err := checkLayout("OneProbeDict", h.Version); err != nil {
		return nil, nil, err
	}
	m, err := readMachine(r)
	if err != nil {
		return nil, nil, err
	}
	op, err := NewOneProbe(m, h.Cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := op.restore(h.N, h.MembN, h.LevelCounts); err != nil {
		return nil, nil, err
	}
	return op, m, nil
}

// dictHeader is the durable metadata of the fully dynamic wrapper.
type dictHeader struct {
	Cfg        DictConfig
	Generation uint64
	Migrating  bool
	CurBucket  int
	Stats      DictStats
}

// Snapshot writes the wrapper — both structures during a migration — to
// w.
func (d *Dict) Snapshot(w io.Writer) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	d.statsMu.Lock()
	stats := d.stats
	d.statsMu.Unlock()
	if err := encodeHeader(w, dictHeader{
		Cfg: d.cfg, Generation: d.generation, Migrating: d.next != nil,
		CurBucket: d.curBucket, Stats: stats,
	}); err != nil {
		return fmt.Errorf("core: encoding Dict header: %w", err)
	}
	if err := d.active.Snapshot(w); err != nil {
		return err
	}
	if d.next != nil {
		return d.next.Snapshot(w)
	}
	return nil
}

// LoadDict restores the fully dynamic wrapper from a Snapshot stream.
func LoadDict(r io.Reader) (*Dict, error) {
	var h dictHeader
	if err := decodeHeader(r, &h); err != nil {
		return nil, fmt.Errorf("core: decoding Dict header: %w", err)
	}
	if err := h.Cfg.normalize(); err != nil {
		return nil, err
	}
	if h.CurBucket < 0 {
		return nil, fmt.Errorf("core: snapshot migration cursor %d negative; corrupt snapshot", h.CurBucket)
	}
	d := &Dict{
		cfg: h.Cfg, generation: h.Generation,
		curBucket: h.CurBucket, stats: h.Stats,
	}
	load := func() (rebuildable, error) {
		if h.Cfg.OneProbe {
			s, _, err := LoadOneProbe(r)
			return s, err
		}
		s, _, err := LoadDynamic(r)
		return s, err
	}
	active, err := load()
	if err != nil {
		return nil, err
	}
	d.active = active
	if h.Migrating {
		next, err := load()
		if err != nil {
			return nil, err
		}
		d.next = next
	}
	return d, nil
}
