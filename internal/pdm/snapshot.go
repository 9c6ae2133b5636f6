package pdm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Snapshot format: a compact binary dump of a machine — configuration,
// I/O counters, and every materialized block. Dictionaries persist
// themselves as a small metadata header followed by their machine's
// snapshot (see internal/core's persist.go), which is enough to restore
// them exactly: all durable state lives in the blocks.
//
// Version 2 added the observability counters (per-disk transfer tallies
// and the per-batch depth histogram); it is the only version read.
// Config.Workers is deliberately not persisted: it only tunes
// wall-clock parallelism, and a restored machine should use the
// restoring host's defaults.

// snapshotMagic identifies the format; the trailing digit is a version.
var snapshotMagic = [4]byte{'P', 'D', 'M', '2'}

// WriteSnapshot serializes the machine to w. It locks every shard for
// the duration, so the blocks it writes are a consistent cross-disk
// point in time; the counters are read atomically just before. For an
// exact counters-vs-blocks correspondence, snapshot a quiesced machine
// (dictionaries do: their persist paths hold the structure's write
// lock).
func (m *Machine) WriteSnapshot(w io.Writer) error {
	for d := range m.shards {
		m.shards[d].mu.Lock()
	}
	defer func() {
		for d := range m.shards {
			m.shards[d].mu.Unlock()
		}
	}()
	stats := m.Stats()

	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	head := []uint64{
		uint64(m.cfg.D), uint64(m.cfg.B), uint64(m.cfg.Model),
		uint64(stats.ParallelIOs), uint64(stats.BlockReads),
		uint64(stats.BlockWrites), uint64(stats.MaxBatch),
	}
	for _, v := range head {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, stats.DepthCounts[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, m.PerDiskIOs()); err != nil {
		return err
	}
	full := make([]Word, m.cfg.B) // a slot padded back to B words
	for d := range m.shards {
		disk := m.shards[d].blocks //lint:pdm-allow guardedby: every shard lock is held (acquired in the loop above)
		if err := binary.Write(bw, binary.LittleEndian, uint64(len(disk))); err != nil {
			return err
		}
		for _, blk := range disk {
			if blk == nil {
				if err := bw.WriteByte(0); err != nil {
					return err
				}
				continue
			}
			if err := bw.WriteByte(1); err != nil {
				return err
			}
			clear(full[copy(full, blk):])
			if err := binary.Write(bw, binary.LittleEndian, full); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadSnapshot restores a machine from a snapshot produced by
// WriteSnapshot. Each restored block holds only its used words in host
// memory, as after Compact.
func ReadSnapshot(r io.Reader) (*Machine, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("pdm: reading snapshot magic: %w", err)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("pdm: not a machine snapshot (magic %q)", magic)
	}
	head := make([]uint64, 7)
	for i := range head {
		if err := binary.Read(br, binary.LittleEndian, &head[i]); err != nil {
			return nil, fmt.Errorf("pdm: reading snapshot header: %w", err)
		}
	}
	cfg := Config{D: int(head[0]), B: int(head[1]), Model: Model(head[2])}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("pdm: snapshot carries invalid config: %w", err)
	}
	// Plausibility caps: the header fields come off an untrusted stream,
	// and D and B size up-front allocations. Anything beyond these bounds
	// is a corrupt (or hostile) snapshot, not a machine we ever built.
	if cfg.D > maxSnapshotDisks || cfg.B > maxSnapshotBlockWords {
		return nil, fmt.Errorf("pdm: snapshot config implausible (D=%d, B=%d)", cfg.D, cfg.B)
	}
	m := NewMachine(cfg)
	m.pios.Store(int64(head[3]))
	m.blockReads.Store(int64(head[4]))
	m.blockWrites.Store(int64(head[5]))
	m.maxBatch.Store(int64(head[6]))
	var depths [DepthBuckets]int64
	if err := binary.Read(br, binary.LittleEndian, depths[:]); err != nil {
		return nil, fmt.Errorf("pdm: reading depth counts: %w", err)
	}
	for i, v := range depths {
		m.depthCounts[i].Store(v)
	}
	perDisk := make([]int64, cfg.D)
	if err := binary.Read(br, binary.LittleEndian, perDisk); err != nil {
		return nil, fmt.Errorf("pdm: reading per-disk tallies: %w", err)
	}
	for d, v := range perDisk {
		m.shards[d].ios.Store(v)
	}
	full := make([]Word, cfg.B) // each block as the stream holds it, B words
	for d := 0; d < cfg.D; d++ {
		var nBlocks uint64
		if err := binary.Read(br, binary.LittleEndian, &nBlocks); err != nil {
			return nil, fmt.Errorf("pdm: reading disk %d: %w", d, err)
		}
		// The machine is not yet published; the lock only states the
		// guarded-by contract.
		s := &m.shards[d]
		s.mu.Lock()
		err := s.loadLocked(br, d, nBlocks, full)
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

// loadLocked reads disk d's nBlocks blocks off a snapshot stream into
// the empty shard, each through the B-word buffer full, and keeps a slot
// of only its used words. nBlocks is untrusted: the disk grows block by
// block, so a huge length field fails at the stream's real end instead
// of sizing one giant allocation up front, and through growLocked, the
// one rule that sizes the block and checksum arrays alike. Callers hold
// s.mu.
func (s *shard) loadLocked(br *bufio.Reader, d int, nBlocks uint64, full []Word) error {
	for b := 0; uint64(b) < nBlocks; b++ {
		present, err := br.ReadByte()
		if err != nil {
			return fmt.Errorf("pdm: reading disk %d block %d: %w", d, b, err)
		}
		s.growLocked(b + 1)
		if present == 0 {
			continue
		}
		if err := binary.Read(br, binary.LittleEndian, full); err != nil {
			return fmt.Errorf("pdm: reading disk %d block %d: %w", d, b, err)
		}
		blk := make([]Word, usedWords(full))
		copy(blk, full)
		s.blocks[b] = blk
		// Checksums are not persisted: recompute them, so loading a
		// snapshot always yields a machine whose blocks verify (any
		// latent corruption present at save time is thereby blessed —
		// scrub before saving if that matters).
		s.sums[b] = s.sumLocked(blk)
	}
	return nil
}

// Snapshot plausibility bounds for untrusted streams: comfortably above
// any configuration the experiments use, far below anything that could
// size a damaging allocation.
const (
	maxSnapshotDisks      = 1 << 20
	maxSnapshotBlockWords = 1 << 21 // 16 MiB per block
)
