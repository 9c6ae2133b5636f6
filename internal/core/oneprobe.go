package core

import (
	"fmt"

	"pdmdict/internal/pdm"
)

// OneProbeDict explores the paper's Open Problems section (Section 6):
// "It is plausible that full bandwidth can be achieved with lookup in 1
// I/O, while still supporting efficient updates. One idea that we have
// considered is to apply the load balancing scheme … recursively, for
// some constant number of levels …".
//
// This implementation realizes the level recursion with the
// disk-multiplication trick the paper uses elsewhere ("we can make any
// constant number of parallel instances … the number of disks increase
// by a constant factor"): each of the c levels of the §4.3 cascade gets
// its own group of d disks, alongside the membership group — (c+1)·d
// disks total. Because all level groups are disjoint, the cascade's
// first probe covers every level: ONE parallel I/O fetches the
// membership buckets AND every level's neighborhood of x:
//
//   - Lookup: exactly 1 parallel I/O, always (the membership record
//     says which level's pre-fetched fields to decode).
//   - Insert/Delete: exactly 2 parallel I/Os (the same read batch plus
//     one write batch) — the old chain, wherever it lives, is already
//     in hand.
//
// The satellite budget is Θ(B·D) for D = (c+1)·d total disks (a
// (1/(c+1)) fraction of the raw stripe, i.e. full bandwidth up to the
// constant the disk multiplication costs). What remains non-constant —
// and why Section 6 is still open — is the failure mode: when no level
// offers t free fields the structure must be rebuilt (ErrFull here);
// the paper's remark "this makes the time for updates non-constant"
// shows up exactly there.
type OneProbeDict struct {
	cascade
	cfg OneProbeConfig
}

// OneProbeConfig parameterizes the structure.
type OneProbeConfig struct {
	// Capacity is N, fixed at creation. Required.
	Capacity int
	// SatWords is the satellite size per key, in words.
	SatWords int
	// Levels is the recursion depth c; 0 defaults to 3.
	Levels int
	// Slack sizes level 1 at Slack·N·d fields; 0 defaults to 6.
	Slack float64
	// Ratio shrinks consecutive levels; 0 defaults to 1/4.
	Ratio float64
	// Universe is u; 0 defaults to 2^63.
	Universe uint64
	// Seed selects the expanders.
	Seed uint64
}

func (c *OneProbeConfig) normalize() error {
	if c.Capacity <= 0 {
		return fmt.Errorf("core: OneProbeConfig.Capacity = %d, must be positive", c.Capacity)
	}
	if c.SatWords < 0 {
		return fmt.Errorf("core: negative SatWords")
	}
	if c.Levels == 0 {
		c.Levels = 3
	}
	if c.Levels < 1 {
		return fmt.Errorf("core: Levels %d below 1", c.Levels)
	}
	if c.Slack == 0 {
		c.Slack = 6
	}
	// Negated comparisons reject NaN from corrupt snapshot float fields.
	if !(c.Slack >= 1 && c.Slack <= maxConfigSlack) {
		return fmt.Errorf("core: Slack %v outside [1, %d]", c.Slack, maxConfigSlack)
	}
	if c.Ratio == 0 {
		c.Ratio = 0.25
	}
	if !(c.Ratio > 0 && c.Ratio < 1) {
		return fmt.Errorf("core: Ratio %v outside (0,1)", c.Ratio)
	}
	if c.Universe == 0 {
		c.Universe = 1 << 63
	}
	return nil
}

// NewOneProbe creates an empty structure. The machine's disk count must
// be divisible by Levels+1; the expander degree is D/(Levels+1).
func NewOneProbe(m *pdm.Machine, cfg OneProbeConfig) (*OneProbeDict, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	groups := cfg.Levels + 1
	if m.D()%groups != 0 {
		return nil, fmt.Errorf("core: OneProbe needs D divisible by levels+1 = %d, got D=%d", groups, m.D())
	}
	d := m.D() / groups
	if d < 3 {
		return nil, fmt.Errorf("core: degree %d too small (need d ≥ 3)", d)
	}
	op := &OneProbeDict{cfg: cfg}
	err := op.initLocked(m, d, cascadeSizing{
		Capacity: cfg.Capacity, SatWords: cfg.SatWords, Universe: cfg.Universe,
		Seed: cfg.Seed, Slack: cfg.Slack, Ratio: cfg.Ratio,
	}, func(li, _ int, _ bool) (region, bool) {
		return region{m: m, disk0: (li + 1) * d, nDisks: d}, li+1 == cfg.Levels
	})
	if err != nil {
		return nil, err
	}
	return op, nil
}
