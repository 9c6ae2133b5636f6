package core

import (
	"fmt"
	"math"

	"pdmdict/internal/pdm"
)

// DynamicConfig parameterizes the Section 4.3 / Theorem 7 dictionary.
type DynamicConfig struct {
	// Capacity is N, the maximum number of keys, fixed at initialization
	// as in the theorem ("a set whose size is not allowed to go beyond
	// N"). Required.
	Capacity int
	// SatWords is the satellite size per key, in words.
	SatWords int
	// Epsilon is the performance parameter ɛ of Theorem 7: successful
	// searches average at most 1+ɛ I/Os, updates at most 2+ɛ. 0 defaults
	// to 0.5. The theorem requires d > 6(1+1/ɛ).
	Epsilon float64
	// Ratio is the geometric shrink factor between consecutive retrieval
	// arrays (the paper's 6ε, constrained to be below 1/(1+1/ɛ)). 0
	// defaults to 0.9/(1+1/ɛ).
	Ratio float64
	// Slack sets the first array's size: v₁ = Slack·N·d fields. 0
	// defaults to 6 (the ε = 1/12 regime, as in StaticConfig).
	Slack float64
	// Universe is u; 0 defaults to 2^63.
	Universe uint64
	// Seed selects the expanders; array i uses Seed+i+1 and the
	// membership dictionary uses Seed.
	Seed uint64
}

func (c *DynamicConfig) normalize() error {
	if c.Capacity <= 0 {
		return fmt.Errorf("core: DynamicConfig.Capacity = %d, must be positive", c.Capacity)
	}
	if c.SatWords < 0 {
		return fmt.Errorf("core: negative SatWords")
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.5
	}
	// Negated comparisons so NaN (possible in a corrupt snapshot's float
	// fields) is rejected rather than silently propagated into sizing.
	if !(c.Epsilon > 0 && c.Epsilon <= maxConfigSlack) {
		return fmt.Errorf("core: Epsilon %v outside (0, %d]", c.Epsilon, maxConfigSlack)
	}
	if c.Ratio == 0 {
		c.Ratio = 0.9 / (1 + 1/c.Epsilon)
	}
	if !(c.Ratio > 0 && c.Ratio < 1) {
		return fmt.Errorf("core: Ratio %v outside (0,1)", c.Ratio)
	}
	if c.Slack == 0 {
		c.Slack = 6
	}
	if !(c.Slack >= 1 && c.Slack <= maxConfigSlack) {
		return fmt.Errorf("core: Slack %v outside [1, %d]", c.Slack, maxConfigSlack)
	}
	if c.Universe == 0 {
		c.Universe = 1 << 63
	}
	return nil
}

// DynamicDict is the dynamic dictionary of Theorem 7: a membership
// sub-dictionary (Section 4.1) on d disks plus a cascade of retrieval
// arrays A_1 ⊃ A_2 ⊃ … of geometrically decreasing size stacked on
// another d disks, each indexed by its own expander. Insertion is
// first-fit: a key goes to the first array offering t = ⌈2d/3⌉
// currently-free fields among its neighbors, where its satellite is
// chained exactly as in the static CaseA layout.
//
// The arrays share one disk group, so the first probe reads A_1 only
// (see cascade). Costs (measured, and verified in tests):
//   - unsuccessful search: 1 parallel I/O (the first probe batches the
//     membership buckets with A_1's fields);
//   - successful search: 1 I/O for keys resident in A_1, 2 I/Os for
//     deeper keys — at most 1+ɛ on average, since a ≤ Ratio^i fraction
//     of keys lives below level i;
//   - insert: the search reads plus one batched write (2+ɛ on average).
//
// Storing the resident level in the membership record costs lg l extra
// bits and caps the worst-case successful search at 2 I/Os, strictly
// inside the theorem's O(log n) bound.
type DynamicDict struct {
	cascade
	cfg DynamicConfig
}

// NewDynamic creates an empty dictionary. The machine must have an even
// number of disks, 2d; the theorem's constraint d > 6(1+1/ɛ) is
// enforced.
func NewDynamic(m *pdm.Machine, cfg DynamicConfig) (*DynamicDict, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if m.D()%2 != 0 {
		return nil, fmt.Errorf("core: DynamicDict needs an even disk count, got %d", m.D())
	}
	d := m.D() / 2
	if float64(d) <= 6*(1+1/cfg.Epsilon) {
		return nil, fmt.Errorf("core: Theorem 7 requires d > 6(1+1/ɛ): d=%d, ɛ=%v needs d > %.1f",
			d, cfg.Epsilon, 6*(1+1/cfg.Epsilon))
	}
	dd := &DynamicDict{cfg: cfg}
	// Geometric cascade: array i has Slack·N·Ratio^(i-1) fields per
	// stripe, stacked at increasing block offsets on disks [d, 2d), down
	// to the floor range (one range unit per stripe, see cascade), where
	// a single key's chain still fits comfortably, or to the paper's
	// level count l = ⌈log N / log(1/Ratio)⌉ + 1.
	block0 := 0
	maxLevels := max(int(math.Ceil(math.Log(float64(cfg.Capacity))/math.Log(1/cfg.Ratio)))+1, 1)
	err := dd.initLocked(m, d, cascadeSizing{
		Capacity: cfg.Capacity, SatWords: cfg.SatWords, Universe: cfg.Universe,
		Seed: cfg.Seed, Slack: cfg.Slack, Ratio: cfg.Ratio,
	}, func(li, blocks int, floor bool) (region, bool) {
		reg := region{m: m, disk0: d, nDisks: d, block0: block0}
		block0 += blocks
		return reg, floor || li+1 >= maxLevels
	})
	if err != nil {
		return nil, err
	}
	return dd, nil
}
