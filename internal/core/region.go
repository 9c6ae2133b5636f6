// Package core implements the paper's dictionaries for the parallel disk
// model:
//
//   - BasicDict — Section 4.1: the load-balancing dictionary with O(1)
//     worst-case lookups and updates (1-I/O lookups when a bucket fits in
//     a block), in both the k = 1 and k = d/2 (bandwidth) variants.
//   - StaticDict — Section 4.2 / Theorem 6: the one-probe static
//     dictionary built by unique-neighbor assignment, cases (a) and (b),
//     whose lookups run the cascade below as a single level.
//   - DynamicDict — Section 4.3 / Theorem 7: the geometric cascade of
//     retrieval arrays with first-fit insertion; unsuccessful searches
//     take 1 I/O, successful searches 1+ɛ I/Os on average, updates 2+ɛ.
//   - OneProbeDict — Section 6's open problem explored: the same cascade
//     body with each level on its own disk group, so lookups take 1 I/O.
//   - Dict — the fully dynamic wrapper of Section 4's introduction:
//     worst-case global rebuilding (Overmars–van Leeuwen) plus deletions,
//     running two structures side by side.
//
// All structures are deterministic: every decision is a function of the
// configured seed and the operation sequence.
package core

import (
	"errors"
	"fmt"

	"pdmdict/internal/pdm"
)

// ErrFull is returned when an insertion cannot be placed without
// violating the structure's capacity guarantees. With parameters in the
// regime the paper's lemmas cover this does not happen; the fully
// dynamic wrapper reacts by rebuilding into a larger structure.
var ErrFull = errors.New("core: dictionary capacity exhausted")

// region is a rectangular view of a machine: nDisks consecutive disks
// starting at disk0, with blocks offset by block0. The composite
// dictionaries (Theorem 6 case (a), Theorem 7) place their
// sub-dictionaries on disjoint regions of one machine so that one probe
// of each sub-structure fits in a single parallel I/O.
type region struct {
	m      *pdm.Machine
	disk0  int
	nDisks int
	block0 int
}

func (r region) addr(disk, block int) pdm.Addr {
	if disk < 0 || disk >= r.nDisks {
		panic(fmt.Sprintf("core: region disk %d out of [0,%d)", disk, r.nDisks))
	}
	return pdm.Addr{Disk: r.disk0 + disk, Block: r.block0 + block}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
