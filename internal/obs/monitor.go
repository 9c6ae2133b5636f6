package obs

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"pdmdict/internal/pdm"
)

// Monitor is the deterministic watchdog: a streaming rule engine that
// consumes the hook event stream (the same pipeline Collector and
// OpAccountant sit on) and drives one alert state machine per rule
// instance over step-counter windows. Every threshold, window, and
// evaluation tick is stated in parallel-I/O steps — the machine's own
// deterministic clock, never wall time — so the same event stream
// always yields the same alert timeline, live or replayed from a trace
// (pdmtrace -alerts).
//
// The state machine is the multi-window burn-rate shape:
//
//	Inactive → Pending    the rule's condition breaches at an eval tick
//	Pending  → Firing     the breach has held for ForSteps
//	Pending  → Inactive   the breach cleared before ForSteps elapsed
//	Firing   → Resolved   the condition has been clear for ClearSteps
//	Resolved → Inactive   the acknowledgment tick (always taken next)
//
// At most one edge is taken per instance per eval tick, so the machine
// never skips states by construction. Each transition is appended to
// the timeline, handed to the AlertListener (if any), and emitted
// downstream as a pdm.EventAlert annotation — which is how alert
// transitions land in JSONL traces (v5). Incoming EventAlert events are
// forwarded but never fed to the rules, so replaying a trace that
// already contains alerts regenerates the identical timeline instead of
// compounding it.
//
// Monitor implements pdm.Hook and is safe for concurrent use. Its lock
// is never held across calls into the downstream hook or the listener;
// its chain's fold lock is.
type Monitor struct {
	next member   // downstream sink; receives every event plus synthesized alerts
	fold spanFold // the chain's fold; slo_burn judges its records

	mu       sync.Mutex
	now      int64             // guarded by mu; cumulative steps observed (the deterministic clock)
	rules    []*ruleState      // guarded by mu
	listener AlertListener     // guarded by mu
	timeline []AlertTransition // guarded by mu; most recent maxTimeline transitions
	total    int64             // guarded by mu; lifetime transition count (timeline may be truncated)
}

// maxTimeline bounds the retained transition history. Truncation keeps
// the most recent entries and is itself deterministic, so online and
// offline timelines stay byte-identical even past the bound.
const maxTimeline = 4096

// AlertListener receives the transitions of one eval tick, in rule
// order. It runs on the goroutine that issued the triggering batch,
// outside the Monitor's lock but inside the machine's hook call and
// the chain's fold lock: it must be fast, non-blocking, must not issue
// I/O, and must not read the chain (waking a repair supervisor via
// heal.Supervisor.Wake is the intended use).
type AlertListener func([]AlertTransition)

// AlertState is one rule instance's position in the alert state machine.
type AlertState uint8

// Alert states, in escalation order.
const (
	AlertInactive AlertState = iota
	AlertPending
	AlertFiring
	AlertResolved
)

// String names the state as used in tags, traces, and metrics.
func (s AlertState) String() string {
	switch s {
	case AlertPending:
		return "pending"
	case AlertFiring:
		return "firing"
	case AlertResolved:
		return "resolved"
	case AlertInactive:
		return "inactive"
	default:
		return fmt.Sprintf("AlertState(%d)", int(s))
	}
}

// MarshalText makes alert states render as their names in JSON.
func (s AlertState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// alertTags spells each state's trace tag, "alert." + its name, once,
// so emitting a transition builds no string.
var alertTags = [...]string{
	AlertInactive: "alert.inactive",
	AlertPending:  "alert.pending",
	AlertFiring:   "alert.firing",
	AlertResolved: "alert.resolved",
}

// alertTag maps a destination state to its trace tag.
func alertTag(s AlertState) string {
	if int(s) < len(alertTags) {
		return alertTags[s]
	}
	return alertTags[AlertInactive]
}

// AlertTransition is one edge of the alert state machine.
type AlertTransition struct {
	Rule  string     `json:"rule"`
	Label string     `json:"label,omitempty"` // instance within the rule ("" for unlabeled rules)
	From  AlertState `json:"from"`
	To    AlertState `json:"to"`
	Step  int64      `json:"step"`        // monitor clock at the transition
	Value int64      `json:"value_micro"` // sampled rule value, fixed-point micro-units
}

// ruleSample is one labeled observation a detector reports at an eval
// tick. Value is in fixed-point micro-units (1e6 = 1.0).
type ruleSample struct {
	Label  string
	Value  int64
	Breach bool
}

// detector is the per-rule streaming state. observe takes one event at
// the given monitor clock; sample reports every instance the detector
// has ever seen (so firing instances keep being evaluated and can
// resolve), in a slice the detector owns and reuses at its next sample.
// Detectors are driven under the Monitor's lock and need no locking of
// their own.
type detector interface {
	observe(e pdm.Event, now int64)
	sample(now int64) []ruleSample
}

// Rule is one watchdog rule: a named detector plus the state-machine
// pacing. Rule values are templates — NewMonitor instantiates fresh
// detector state per monitor, so one Rule can configure many monitors.
type Rule struct {
	// Name identifies the rule in transitions, metrics, and traces.
	Name string
	// EvalEvery is the evaluation cadence in steps (<= 0 means 64).
	EvalEvery int64
	// ForSteps is how long a breach must hold before Pending escalates
	// to Firing; 0 escalates at the next eval tick.
	ForSteps int64
	// ClearSteps is how long the condition must stay clear before
	// Firing resolves; 0 resolves at the first clear tick.
	ClearSteps int64

	newDetector func() detector
}

func (r Rule) normalized() Rule {
	if r.EvalEvery <= 0 {
		r.EvalEvery = 64
	}
	return r
}

// ruleState is one rule's live state inside a Monitor.
type ruleState struct {
	rule        Rule
	det         detector
	nextEval    int64
	instances   map[string]*alertInstance
	transitions int64
	cycles      int64 // Firing → Resolved edges
}

// alertInstance is one labeled instance's state-machine position.
type alertInstance struct {
	state      AlertState
	since      int64 // clock at the Inactive → Pending edge
	clearSince int64 // clock when a firing breach last cleared; -1 while breaching
	value      int64
}

// NewMonitor wraps next (which may be nil for offline replay) in a
// watchdog evaluating the given rules. Install the result as the
// machine's hook — or upstream of a Tee feeding Collector, Ring, and a
// trace writer, so synthesized alert events reach every sink.
func NewMonitor(next pdm.Hook, rules ...Rule) *Monitor {
	m := &Monitor{}
	if next != nil {
		m.next = m.fold.adopt(next)
	}
	for _, r := range rules {
		r = r.normalized()
		m.rules = append(m.rules, &ruleState{
			rule:      r,
			det:       r.newDetector(),
			instances: map[string]*alertInstance{},
		})
	}
	return m
}

// SetListener installs (or, with nil, removes) the transition callback.
func (m *Monitor) SetListener(l AlertListener) {
	m.mu.Lock()
	m.listener = l
	m.mu.Unlock()
}

// Event implements pdm.Hook. Non-span, non-annotation events advance
// the monitor clock by their Steps; every event except incoming alerts
// feeds the detectors; rules whose eval tick is due are evaluated; and
// the event — followed by any synthesized alert events — is forwarded
// downstream with the lock released.
func (m *Monitor) Event(e pdm.Event)    { m.fold.event(e, m) }
func (m *Monitor) join(chain *spanFold) { m.fold.chain.Store(chain) }

func (m *Monitor) observe(e pdm.Event, rec *OpRecord) {
	var fired []AlertTransition
	m.mu.Lock()
	if e.Kind != pdm.EventAlert {
		if !e.Kind.IsSpan() && !e.Kind.IsAnnotation() {
			m.now += int64(e.Steps)
		}
		now := m.now
		for _, rs := range m.rules {
			if burn, ok := rs.det.(*burnDetector); ok {
				burn.record(rec, now) // judges the chain's records
			} else {
				rs.det.observe(e, now)
			}
		}
		for _, rs := range m.rules {
			if now >= rs.nextEval {
				m.evalLocked(rs, now, &fired)
				rs.nextEval = (now/rs.rule.EvalEvery + 1) * rs.rule.EvalEvery
			}
		}
	}
	listener := m.listener
	m.mu.Unlock()
	if m.next != nil {
		m.next.observe(e, rec)
		for _, t := range fired {
			m.next.observe(alertEvent(t), nil)
		}
	}
	if listener != nil && len(fired) > 0 {
		listener(fired)
	}
}

// evalLocked runs one rule's eval tick: every instance takes at most
// one state-machine edge. Samples are walked in sorted label order so
// the transition sequence is deterministic. Callers hold m.mu.
func (m *Monitor) evalLocked(rs *ruleState, now int64, fired *[]AlertTransition) {
	samples := rs.det.sample(now)
	slices.SortFunc(samples, func(a, b ruleSample) int { return strings.Compare(a.Label, b.Label) })
	for _, s := range samples {
		inst := rs.instances[s.Label]
		if inst == nil {
			inst = &alertInstance{clearSince: -1}
			rs.instances[s.Label] = inst
		}
		inst.value = s.Value
		from := inst.state
		to := from
		switch from {
		case AlertInactive:
			if s.Breach {
				to = AlertPending
				inst.since = now
			}
		case AlertPending:
			if !s.Breach {
				to = AlertInactive
			} else if now-inst.since >= rs.rule.ForSteps {
				to = AlertFiring
				inst.clearSince = -1
			}
		case AlertFiring:
			if s.Breach {
				inst.clearSince = -1
			} else {
				if inst.clearSince < 0 {
					inst.clearSince = now
				}
				if now-inst.clearSince >= rs.rule.ClearSteps {
					to = AlertResolved
				}
			}
		case AlertResolved:
			// The acknowledgment edge: always step back to Inactive; a
			// still-breaching condition re-enters Pending next tick, so
			// the machine never skips a state.
			to = AlertInactive
		}
		if to == from {
			continue
		}
		inst.state = to
		rs.transitions++
		if from == AlertFiring && to == AlertResolved {
			rs.cycles++
		}
		t := AlertTransition{Rule: rs.rule.Name, Label: s.Label, From: from, To: to, Step: now, Value: s.Value}
		m.total++
		m.timeline = append(m.timeline, t)
		if len(m.timeline) > maxTimeline {
			m.timeline = m.timeline[len(m.timeline)-maxTimeline:]
		}
		*fired = append(*fired, t)
	}
}

// alertEvent shapes one transition as the annotation event emitted into
// the stream (and thus into v5 traces).
func alertEvent(t AlertTransition) pdm.Event {
	rule := t.Rule
	if t.Label != "" {
		rule += "[" + t.Label + "]"
	}
	return pdm.Event{
		Kind:  pdm.EventAlert,
		Tag:   alertTag(t.To),
		Rule:  rule,
		From:  t.From.String(),
		To:    t.To.String(),
		Value: t.Value,
		Step:  t.Step,
	}
}

// Now returns the monitor's step clock.
func (m *Monitor) Now() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Timeline returns a copy of the retained transition history, oldest
// first (the most recent maxTimeline transitions).
func (m *Monitor) Timeline() []AlertTransition {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]AlertTransition(nil), m.timeline...)
}

// Cycles returns the number of complete fire → resolve cycles per rule.
func (m *Monitor) Cycles() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.rules))
	for _, rs := range m.rules {
		out[rs.rule.Name] = rs.cycles
	}
	return out
}

// RenderTimeline writes the retained transitions one per line in a
// fixed format — the byte-comparable rendering behind pdmtrace -alerts
// and the online/offline equivalence test.
func (m *Monitor) RenderTimeline(w io.Writer) {
	for _, t := range m.Timeline() {
		label := t.Label
		if label == "" {
			label = "-"
		}
		fmt.Fprintf(w, "step=%d rule=%s label=%s %s->%s value=%d\n",
			t.Step, t.Rule, label, t.From, t.To, t.Value)
	}
}

// AlertInstance is one rule instance's row of an AlertsSnapshot.
type AlertInstance struct {
	Label      string     `json:"label,omitempty"`
	State      AlertState `json:"state"`
	ValueMicro int64      `json:"value_micro"`
	SinceStep  int64      `json:"since_step,omitempty"`
}

// AlertRuleSnapshot is one rule's row of an AlertsSnapshot.
type AlertRuleSnapshot struct {
	Rule        string          `json:"rule"`
	Firing      int             `json:"firing"`
	Pending     int             `json:"pending"`
	Transitions int64           `json:"transitions"`
	Cycles      int64           `json:"cycles"`
	Instances   []AlertInstance `json:"instances,omitempty"`
}

// AlertsSnapshot is the JSON shape served at /debug/alerts.
type AlertsSnapshot struct {
	Step        int64               `json:"step"`
	Transitions int64               `json:"transitions_total"`
	Rules       []AlertRuleSnapshot `json:"rules"`
	Timeline    []AlertTransition   `json:"timeline"`
}

// Snapshot returns the monitor's full state: per-rule instance tables
// (labels sorted) plus the retained timeline. Deterministic for a
// deterministic event stream.
func (m *Monitor) Snapshot() AlertsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := AlertsSnapshot{
		Step:        m.now,
		Transitions: m.total,
		Timeline:    append([]AlertTransition(nil), m.timeline...),
	}
	for _, rs := range m.rules {
		r := AlertRuleSnapshot{
			Rule:        rs.rule.Name,
			Transitions: rs.transitions,
			Cycles:      rs.cycles,
		}
		for _, l := range sortedKeys(rs.instances) {
			inst := rs.instances[l]
			row := AlertInstance{Label: l, State: inst.state, ValueMicro: inst.value}
			switch inst.state {
			case AlertPending:
				r.Pending++
				row.SinceStep = inst.since
			case AlertFiring:
				r.Firing++
				row.SinceStep = inst.since
			}
			r.Instances = append(r.Instances, row)
		}
		snap.Rules = append(snap.Rules, r)
	}
	return snap
}

// ---------------------------------------------------------------------
// Built-in detectors.

// BalanceConfig shapes the balance auditor — the paper's (1+ε) load
// bound as a runtime assertion over sliding step windows.
type BalanceConfig struct {
	// WindowSteps is the audit window width (<= 0 means 256).
	WindowSteps int64
	// MaxSkewMicro is the breach threshold on max/mean per-disk block
	// transfers, fixed-point micro-units (<= 0 means 1500000, i.e. a
	// (1+ε) bound with ε = 0.5).
	MaxSkewMicro int64
	// MinBlocks is the minimum transfers a window needs before its skew
	// is meaningful (<= 0 means 64).
	MinBlocks int64
}

func (c BalanceConfig) normalized() BalanceConfig {
	if c.WindowSteps <= 0 {
		c.WindowSteps = 256
	}
	if c.MaxSkewMicro <= 0 {
		c.MaxSkewMicro = 1_500_000
	}
	if c.MinBlocks <= 0 {
		c.MinBlocks = 64
	}
	return c
}

// BalanceRule builds the balance auditor: it tallies per-disk block
// transfers over consecutive windows of WindowSteps and breaches while
// the last full window's max/mean skew exceeded MaxSkewMicro.
func BalanceRule(cfg BalanceConfig) Rule {
	cfg = cfg.normalized()
	return Rule{
		Name:      "balance",
		EvalEvery: 64,
		newDetector: func() detector {
			return &balanceDetector{cfg: cfg}
		},
	}
}

type balanceDetector struct {
	cfg        BalanceConfig
	winStart   int64
	counts     []int64 // per-disk transfers in the open window; length = disks seen
	lastValue  int64
	lastBreach bool
	out        [1]ruleSample
}

// roll finalizes the open window once the clock has moved WindowSteps
// past its start: the window's skew becomes the detector's reported
// value, and the tallies reset.
func (d *balanceDetector) roll(now int64) {
	if now-d.winStart < d.cfg.WindowSteps {
		return
	}
	var total, max int64
	for _, c := range d.counts {
		total += c
		if c > max {
			max = c
		}
	}
	if total >= d.cfg.MinBlocks && len(d.counts) > 0 {
		d.lastValue = max * int64(len(d.counts)) * 1_000_000 / total
		d.lastBreach = d.lastValue > d.cfg.MaxSkewMicro
	} else {
		d.lastValue = 0
		d.lastBreach = false
	}
	for i := range d.counts {
		d.counts[i] = 0
	}
	d.winStart = now
}

func (d *balanceDetector) observe(e pdm.Event, now int64) {
	if e.Kind.IsSpan() || e.Kind.IsAnnotation() {
		return
	}
	d.roll(now)
	for _, a := range e.Addrs {
		for a.Disk >= len(d.counts) {
			d.counts = append(d.counts, 0)
		}
		d.counts[a.Disk]++
	}
}

func (d *balanceDetector) sample(now int64) []ruleSample {
	d.roll(now)
	d.out[0] = ruleSample{Value: d.lastValue, Breach: d.lastBreach}
	return d.out[:]
}

// BurnConfig shapes the SLO burn-rate rule: per-client (or per-tag)
// modeled-latency objectives with fast+slow dual windows.
type BurnConfig struct {
	// Target is the modeled-latency SLO per operation (<= 0 means
	// 200ms under the default cost model).
	Target time.Duration
	// ObjectiveMicro is the allowed bad-operation fraction, fixed-point
	// micro-units (<= 0 means 50000, i.e. 5%).
	ObjectiveMicro int64
	// Burn is the burn-rate multiplier: the rule breaches when the bad
	// fraction exceeds Burn × ObjectiveMicro in BOTH windows (<= 0
	// means 10 — with the defaults, >50% bad ops).
	Burn int64
	// FastSteps and SlowSteps are the dual window widths (<= 0 means
	// 512 and 2048).
	FastSteps int64
	SlowSteps int64
	// MinOps is the minimum completed operations each window needs
	// before the rate is meaningful (<= 0 means 8).
	MinOps int64
	// ByTag labels instances by the operation's root span tag instead
	// of by client.
	ByTag bool
	// Cost converts step/block counts to modeled latency; the zero
	// value means DefaultCostModel.
	Cost CostModel
}

func (c BurnConfig) normalized() BurnConfig {
	if c.Target <= 0 {
		c.Target = 200 * time.Millisecond
	}
	if c.ObjectiveMicro <= 0 {
		c.ObjectiveMicro = 50_000
	}
	if c.Burn <= 0 {
		c.Burn = 10
	}
	if c.FastSteps <= 0 {
		c.FastSteps = 512
	}
	if c.SlowSteps <= 0 {
		c.SlowSteps = 2048
	}
	if c.SlowSteps < c.FastSteps {
		c.SlowSteps = c.FastSteps
	}
	if c.MinOps <= 0 {
		c.MinOps = 8
	}
	return c
}

// BurnRateRule builds the SLO burn-rate detector: it takes the records
// of token-carrying root operation spans, judges each
// completed op by its modeled latency under the cost model, and
// breaches while the fraction of ops over Target exceeds Burn ×
// Objective in both the fast and the slow window.
func BurnRateRule(cfg BurnConfig) Rule {
	cfg = cfg.normalized()
	return Rule{
		Name:      "slo_burn",
		EvalEvery: 64,
		newDetector: func() detector {
			return &burnDetector{cfg: cfg, series: map[string][]burnFinish{},
				clients: map[int]string{}, tags: map[string]string{}}
		},
	}
}

type burnFinish struct {
	step int64
	bad  bool
}

type burnDetector struct {
	cfg     BurnConfig
	own     *SpanFolder             // observe's fold; a Monitor never makes it
	series  map[string][]burnFinish // completed ops per label, pruned to the slow window
	clients map[int]string          // cached instance label per client
	tags    map[string]string       // cached instance label per tag (ByTag)
	sorted  []string                // sample scratch: the series labels, sorted
	out     []ruleSample            // sample scratch
}

// label returns the cached instance label of a completed op.
func (d *burnDetector) label(rec *OpRecord) string {
	if d.cfg.ByTag {
		l, ok := d.tags[rec.Tag]
		if !ok {
			l = "tag=" + rec.Tag
			d.tags[rec.Tag] = l
		}
		return l
	}
	l, ok := d.clients[rec.Client]
	if !ok {
		l = "client=" + fmt.Sprint(rec.Client)
		d.clients[rec.Client] = l
	}
	return l
}

// observe folds e privately, as a consumer installed on its own does,
// and records the op it closes; a Monitor calls record instead.
func (d *burnDetector) observe(e pdm.Event, now int64) {
	if d.own == nil {
		d.own = new(SpanFolder)
	}
	d.record(d.own.Fold(e), now)
}

// record judges a completed op by its modeled latency under cfg.Cost.
func (d *burnDetector) record(rec *OpRecord, now int64) {
	if rec == nil || rec.Parent != 0 || rec.Op == 0 {
		return // nothing closed, a nested phase, or an unattributed span
	}
	l := d.label(rec)
	bad := d.cfg.Cost.Latency(rec.Steps, rec.Blocks) > d.cfg.Target
	d.series[l] = append(d.series[l], burnFinish{step: now, bad: bad})
}

func (d *burnDetector) sample(now int64) []ruleSample {
	labels := d.sorted[:0]
	for l := range d.series {
		labels = append(labels, l)
	}
	slices.Sort(labels)
	d.sorted = labels
	out := d.out[:0]
	for _, l := range labels {
		fin := d.series[l]
		lo := 0
		for lo < len(fin) && fin[lo].step <= now-d.cfg.SlowSteps {
			lo++
		}
		if lo > 0 {
			fin = append(fin[:0], fin[lo:]...)
		}
		d.series[l] = fin
		var slowBad, slowTot, fastBad, fastTot int64
		for _, f := range fin {
			slowTot++
			if f.bad {
				slowBad++
			}
			if f.step > now-d.cfg.FastSteps {
				fastTot++
				if f.bad {
					fastBad++
				}
			}
		}
		var fastFrac, slowFrac int64
		if fastTot > 0 {
			fastFrac = fastBad * 1_000_000 / fastTot
		}
		if slowTot > 0 {
			slowFrac = slowBad * 1_000_000 / slowTot
		}
		threshold := d.cfg.Burn * d.cfg.ObjectiveMicro
		out = append(out, ruleSample{
			Label:  l,
			Value:  fastFrac,
			Breach: fastTot >= d.cfg.MinOps && slowTot >= d.cfg.MinOps && fastFrac > threshold && slowFrac > threshold,
		})
	}
	d.out = out
	return out
}

// FlapConfig shapes health-flap detection: N health-state transitions
// on one disk within a step window.
type FlapConfig struct {
	// Flips is the transition count that breaches (<= 0 means 6).
	Flips int
	// WindowSteps is the flap window (<= 0 means 1024).
	WindowSteps int64
}

func (c FlapConfig) normalized() FlapConfig {
	if c.Flips <= 0 {
		c.Flips = 6
	}
	if c.WindowSteps <= 0 {
		c.WindowSteps = 1024
	}
	return c
}

// HealthFlapRule builds the flap detector over pdm.EventHealth
// annotations: a disk that changes health state Flips times within
// WindowSteps is flapping (e.g. failing, half-repairing, re-failing).
func HealthFlapRule(cfg FlapConfig) Rule {
	cfg = cfg.normalized()
	return Rule{
		Name:      "health_flap",
		EvalEvery: 64,
		newDetector: func() detector {
			return &flapDetector{cfg: cfg, disks: map[int][]int64{}, labels: map[int]string{}}
		},
	}
}

type flapDetector struct {
	cfg    FlapConfig
	disks  map[int][]int64 // disk → transition steps, pruned to the window
	labels map[int]string  // disk → cached instance label
	sorted []int           // sample scratch: the disks seen, sorted
	out    []ruleSample    // sample scratch
}

func (d *flapDetector) observe(e pdm.Event, now int64) {
	if e.Kind != pdm.EventHealth || len(e.Addrs) == 0 {
		return
	}
	d.disks[e.Addrs[0].Disk] = append(d.disks[e.Addrs[0].Disk], now)
}

func (d *flapDetector) sample(now int64) []ruleSample {
	disks := d.sorted[:0]
	for disk := range d.disks {
		disks = append(disks, disk)
	}
	slices.Sort(disks)
	d.sorted = disks
	out := d.out[:0]
	for _, disk := range disks {
		w := d.disks[disk]
		lo := 0
		for lo < len(w) && w[lo] <= now-d.cfg.WindowSteps {
			lo++
		}
		if lo > 0 {
			w = append(w[:0], w[lo:]...)
		}
		d.disks[disk] = w
		label, ok := d.labels[disk]
		if !ok {
			label = fmt.Sprintf("disk=%d", disk)
			d.labels[disk] = label
		}
		out = append(out, ruleSample{
			Label:  label,
			Value:  int64(len(w)) * 1_000_000,
			Breach: len(w) >= d.cfg.Flips,
		})
	}
	d.out = out
	return out
}

// DegradedConfig shapes the degraded-capacity rule.
type DegradedConfig struct {
	// MinDown is how many disks must be Failed or Repairing at once to
	// breach (<= 0 means 1).
	MinDown int
}

func (c DegradedConfig) normalized() DegradedConfig {
	if c.MinDown <= 0 {
		c.MinDown = 1
	}
	return c
}

// DegradedCapacityRule builds the degraded-capacity detector: it
// mirrors each disk's current health state from the EventHealth stream
// and breaches while at least MinDown disks are Failed or Repairing.
// Wire an AlertListener calling heal.Supervisor.Wake to have the firing
// edge nudge self-healing.
func DegradedCapacityRule(cfg DegradedConfig) Rule {
	cfg = cfg.normalized()
	return Rule{
		Name:      "degraded_capacity",
		EvalEvery: 16,
		newDetector: func() detector {
			return &degradedDetector{cfg: cfg, states: map[int]string{}}
		},
	}
}

type degradedDetector struct {
	cfg    DegradedConfig
	states map[int]string // disk → current health-state name
	out    [1]ruleSample
}

func (d *degradedDetector) observe(e pdm.Event, now int64) {
	if e.Kind != pdm.EventHealth || len(e.Addrs) == 0 {
		return
	}
	d.states[e.Addrs[0].Disk] = e.To
}

func (d *degradedDetector) sample(now int64) []ruleSample {
	down := 0
	for _, s := range d.states {
		if s == "failed" || s == "repairing" {
			down++
		}
	}
	d.out[0] = ruleSample{
		Value:  int64(down) * 1_000_000,
		Breach: down >= d.cfg.MinDown,
	}
	return d.out[:]
}

// DefaultRules returns the four built-in detectors with their default
// thresholds (see DESIGN.md §14 for the rule table).
func DefaultRules() []Rule {
	return []Rule{
		BalanceRule(BalanceConfig{}),
		BurnRateRule(BurnConfig{}),
		HealthFlapRule(FlapConfig{}),
		DegradedCapacityRule(DegradedConfig{}),
	}
}
