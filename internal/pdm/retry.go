package pdm

// RetryPolicy governs how a structure's fault-aware read/write paths
// re-issue transiently failed accesses. The policy bounds and prices
// the retry rounds; which accesses a round re-issues is the caller's
// choice: a scrub or a repair re-issues every transient failure, since
// every block is its to check, while a lookup re-issues only the blocks
// its answer still needs and stops once every key is settled. Policies
// are pure data: every decision they drive is a function of the access
// outcome and the machine's step counter — never wall time and never an
// unseeded RNG — so a policy cannot break trace determinism. Backoff is
// modeled waiting: it is charged to the machine (and the owning op) as
// parallel-I/O steps through Machine.ChargeSteps, which makes "how long
// recovery waited" part of the cost ledger instead of invisible time.
//
// The zero value is the default policy: up to DefaultRetries immediate
// retry rounds, no backoff, no hedging.

// DefaultRetries is how many times a transiently failed access is
// re-issued before the failure is treated as permanent — the historical
// hardcoded limit, now the zero-value RetryPolicy's setting.
const DefaultRetries = 3

// maxBackoffSteps caps one backoff charge, bounding the exponential
// schedule (and any overflow) at a value that still dwarfs real batches.
const maxBackoffSteps = 1 << 20

// RetryPolicy configures retries, modeled backoff, and hedged reads.
type RetryPolicy struct {
	// MaxRetries bounds the retry rounds of one fault-aware read: how
	// many times a transiently failed access that is still needed is
	// re-issued. 0 means DefaultRetries (so the zero value is the
	// default policy); negative means no retries at all.
	MaxRetries int

	// BackoffBase is the modeled backoff, in parallel-I/O steps, charged
	// before the first retry; 0 disables backoff. Each subsequent retry
	// multiplies it by BackoffFactor (values < 1 mean constant backoff).
	// The per-retry charge is capped at maxBackoffSteps.
	BackoffBase   int
	BackoffFactor int

	// Hedge enables hedged reads: when a retried read targets a disk the
	// machine considers Suspect or recently stalling (SuspectOrStalling),
	// the reader may issue a duplicate read of another replica of the
	// same data in the same retry batch and take whichever copy answers.
	// Hedges are counted via NoteHedges and appear in HealthReport.
	Hedge bool
}

// DefaultRetryPolicy returns the policy equivalent to the zero value,
// spelled out: DefaultRetries immediate retries, no backoff, no hedging.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: DefaultRetries}
}

// Retries returns the effective retry count (resolving the zero-value
// and negative conventions).
func (p RetryPolicy) Retries() int {
	switch {
	case p.MaxRetries == 0:
		return DefaultRetries
	case p.MaxRetries < 0:
		return 0
	default:
		return p.MaxRetries
	}
}

// Backoff returns the modeled backoff in parallel-I/O steps to charge
// before retry attempt r (1-indexed), following the policy's
// exponential schedule. It returns 0 when backoff is disabled.
func (p RetryPolicy) Backoff(r int) int {
	if p.BackoffBase <= 0 || r <= 0 {
		return 0
	}
	b := p.BackoffBase
	f := p.BackoffFactor
	if f < 1 {
		f = 1
	}
	for i := 1; i < r; i++ {
		if b >= maxBackoffSteps/f {
			return maxBackoffSteps
		}
		b *= f
	}
	if b > maxBackoffSteps {
		b = maxBackoffSteps
	}
	return b
}
