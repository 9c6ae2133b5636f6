package pdm

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentBatchStatsExact hammers one machine from G goroutines,
// each issuing batches of known shape against its own block rows, and
// checks that the merged counters equal the arithmetic sum of what the
// goroutines did individually: the sharded accounting must lose nothing
// to concurrency. Run under -race this also exercises the per-shard
// locking of both the inline and fanned-out batch paths.
func TestConcurrentBatchStatsExact(t *testing.T) {
	const (
		D      = 8
		B      = 16
		G      = 8
		rows   = 32 // per-goroutine block rows; D*rows = 256 > fanoutMinBlocks
		rounds = 50 // small depth-1 reads per goroutine
	)
	m := NewMachine(Config{D: D, B: B})
	var wg sync.WaitGroup
	errs := make(chan error, G)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := g * rows
			// One large write: every owned block, depth = rows.
			writes := make([]BlockWrite, 0, D*rows)
			for r := 0; r < rows; r++ {
				for d := 0; d < D; d++ {
					blk := make([]Word, B)
					blk[0] = Word(g)<<32 | Word(d)<<16 | Word(r)
					writes = append(writes, BlockWrite{Addr: Addr{Disk: d, Block: base + r}, Data: blk})
				}
			}
			m.BatchWrite(writes)
			// Depth-1 stripe reads.
			stripe := make([]Addr, D)
			for i := 0; i < rounds; i++ {
				r := i % rows
				for d := 0; d < D; d++ {
					stripe[d] = Addr{Disk: d, Block: base + r}
				}
				out := m.BatchRead(stripe)
				for d, blk := range out {
					if want := Word(g)<<32 | Word(d)<<16 | Word(r); blk[0] != want {
						errs <- fmt.Errorf("goroutine %d read %#x at disk %d row %d, want %#x", g, blk[0], d, r, want)
						return
					}
				}
			}
			// One large read through the fan-out path, depth = rows.
			addrs := make([]Addr, 0, D*rows)
			for r := 0; r < rows; r++ {
				for d := 0; d < D; d++ {
					addrs = append(addrs, Addr{Disk: d, Block: base + r})
				}
			}
			out := m.BatchRead(addrs)
			for i, blk := range out {
				r, d := i/D, i%D
				if want := Word(g)<<32 | Word(d)<<16 | Word(r); blk[0] != want {
					errs <- fmt.Errorf("goroutine %d large read %#x at disk %d row %d, want %#x", g, blk[0], d, r, want)
					return
				}
			}
			// A checked read through the Try path (no injector installed).
			if _, err := m.TryBatchRead(stripe); err != nil {
				errs <- fmt.Errorf("goroutine %d TryBatchRead: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	s := m.Stats()
	wantWrites := int64(G * D * rows)
	wantReads := int64(G * (rounds*D + D*rows + D))
	wantPIOs := int64(G * (rows + rounds + rows + 1))
	if s.BlockWrites != wantWrites {
		t.Errorf("BlockWrites = %d, want %d", s.BlockWrites, wantWrites)
	}
	if s.BlockReads != wantReads {
		t.Errorf("BlockReads = %d, want %d", s.BlockReads, wantReads)
	}
	if s.ParallelIOs != wantPIOs {
		t.Errorf("ParallelIOs = %d, want %d", s.ParallelIOs, wantPIOs)
	}
	if s.MaxBatch != rows {
		t.Errorf("MaxBatch = %d, want %d", s.MaxBatch, rows)
	}
	// Depth histogram: G*(rounds+1) depth-1 batches (stripe reads + Try
	// reads), 2G depth-`rows` batches.
	if got := s.DepthCounts[0]; got != int64(G*(rounds+1)) {
		t.Errorf("DepthCounts[0] = %d, want %d", got, G*(rounds+1))
	}
	if got := s.DepthCounts[rows-1]; got != int64(2*G) {
		t.Errorf("DepthCounts[%d] = %d, want %d", rows-1, got, 2*G)
	}
	// Per-disk transfer tallies must sum to the total transfers, and the
	// workload is disk-symmetric so each disk carries an equal share.
	perDisk := m.PerDiskIOs()
	var sum int64
	for d, n := range perDisk {
		sum += n
		if want := (wantReads + wantWrites) / D; n != want {
			t.Errorf("PerDiskIOs[%d] = %d, want %d", d, n, want)
		}
	}
	if sum != wantReads+wantWrites {
		t.Errorf("sum(PerDiskIOs) = %d, want %d", sum, wantReads+wantWrites)
	}
	if bad := m.VerifyChecksums(); len(bad) != 0 {
		t.Errorf("VerifyChecksums reported %v after concurrent batches", bad)
	}
}

// TestSetParallelismConcurrent flips the worker count while batches are
// in flight; results and accounting must be unaffected (the knob is
// performance-only).
func TestSetParallelismConcurrent(t *testing.T) {
	const D, B, G = 4, 8, 4
	m := NewMachine(Config{D: D, B: B})
	addrs := make([]Addr, 0, D*64)
	var writes []BlockWrite
	for r := 0; r < 64; r++ {
		for d := 0; d < D; d++ {
			addrs = append(addrs, Addr{Disk: d, Block: r})
			blk := make([]Word, B)
			blk[0] = Word(d*1000 + r)
			writes = append(writes, BlockWrite{Addr: Addr{Disk: d, Block: r}, Data: blk})
		}
	}
	m.BatchWrite(writes)
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if g == 0 {
					m.SetParallelism(1 + i%4)
				}
				out := m.BatchRead(addrs)
				for j, blk := range out {
					r, d := j/D, j%D
					if blk[0] != Word(d*1000+r) {
						t.Errorf("read %d under changing parallelism: got %d", j, blk[0])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func benchmarkBatchRead(b *testing.B, d, nBlocks, workers int) {
	m := NewMachine(Config{D: d, B: 64, Workers: workers})
	rows := (nBlocks + d - 1) / d
	var writes []BlockWrite
	addrs := make([]Addr, 0, nBlocks)
	for r := 0; r < rows; r++ {
		for k := 0; k < d && len(addrs) < nBlocks; k++ {
			addrs = append(addrs, Addr{Disk: k, Block: r})
			writes = append(writes, BlockWrite{Addr: Addr{Disk: k, Block: r}, Data: make([]Word, 64)})
		}
	}
	m.BatchWrite(writes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.BatchRead(addrs)
	}
	b.SetBytes(int64(nBlocks) * 64 * 8)
}

func BenchmarkBatchReadSmall(b *testing.B)         { benchmarkBatchRead(b, 8, 8, 1) }
func BenchmarkBatchReadLargeSerial(b *testing.B)   { benchmarkBatchRead(b, 16, 4096, 1) }
func BenchmarkBatchReadLargeFanout(b *testing.B)   { benchmarkBatchRead(b, 16, 4096, 0) }
func BenchmarkBatchWriteLargeSerial(b *testing.B)  { benchmarkBatchWrite(b, 16, 4096, 1) }
func BenchmarkBatchWriteLargeFanout(b *testing.B)  { benchmarkBatchWrite(b, 16, 4096, 0) }
func BenchmarkBatchReadContended(b *testing.B)     { benchmarkBatchReadParallel(b, 16, 16) }
func BenchmarkBatchReadContendedWide(b *testing.B) { benchmarkBatchReadParallel(b, 64, 64) }

func benchmarkBatchWrite(b *testing.B, d, nBlocks, workers int) {
	m := NewMachine(Config{D: d, B: 64, Workers: workers})
	rows := (nBlocks + d - 1) / d
	writes := make([]BlockWrite, 0, nBlocks)
	for r := 0; r < rows; r++ {
		for k := 0; k < d && len(writes) < nBlocks; k++ {
			writes = append(writes, BlockWrite{Addr: Addr{Disk: k, Block: r}, Data: make([]Word, 64)})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.BatchWrite(writes)
	}
	b.SetBytes(int64(nBlocks) * 64 * 8)
}

// benchmarkBatchReadParallel measures many clients issuing small
// stripe-wide reads against one machine — the multi-client query-engine
// shape, dominated by shard-lock handoff rather than copying.
func benchmarkBatchReadParallel(b *testing.B, d, rows int) {
	m := NewMachine(Config{D: d, B: 64})
	var writes []BlockWrite
	for r := 0; r < rows; r++ {
		for k := 0; k < d; k++ {
			writes = append(writes, BlockWrite{Addr: Addr{Disk: k, Block: r}, Data: make([]Word, 64)})
		}
	}
	m.BatchWrite(writes)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		addrs := make([]Addr, d)
		r := 0
		for pb.Next() {
			for k := 0; k < d; k++ {
				addrs[k] = Addr{Disk: k, Block: r}
			}
			r = (r + 1) % rows
			m.BatchRead(addrs)
		}
	})
}
