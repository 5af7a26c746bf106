package cluster

import (
	"fmt"
	"math"
)

// FaultInjector is the coordinator's view of an injected fault source:
// it is consulted once per replica op attempt (including retries) and
// reports whether that attempt fails transiently. Implementations must
// be deterministic for a given seed — the whole simulation is.
type FaultInjector interface {
	AttemptFails(node int, now float64) bool
}

// DefaultHintCap is the per-node hinted-handoff buffer bound applied
// when no explicit resilience options are set: a coordinator cannot let
// one long outage grow its hint buffers without limit.
const DefaultHintCap = 16384

// ResilienceOptions configure the coordinator's serving-path defenses:
// bounded retries with exponential backoff for transient per-op
// failures, per-op timeouts that stop it from waiting on an extreme
// straggler, and speculative backup reads that route around degraded
// replicas. All waits are virtual-time and fully deterministic.
type ResilienceOptions struct {
	// MaxRetries bounds how many times one replica op attempt is
	// retried after a transient failure (0 = fail immediately).
	MaxRetries int
	// BackoffBase is the first retry's backoff wait in virtual seconds;
	// each further retry doubles it up to BackoffMax.
	BackoffBase float64
	// BackoffMax caps the exponential backoff (0 = uncapped).
	BackoffMax float64
	// OpTimeout is the coordinator's per-op patience in virtual
	// seconds: a replica whose estimated service time (degradation x
	// ExpectedOpSeconds) exceeds it times out and is treated like a
	// down node for that op. 0 disables timeouts.
	OpTimeout float64
	// ExpectedOpSeconds is the healthy-node service-time estimate the
	// timeout comparison uses.
	ExpectedOpSeconds float64
	// SpeculativeReads routes reads away from stragglers: when a read
	// would land on a replica degraded beyond SpeculationThreshold and
	// a healthier live replica exists, the coordinator reads the backup
	// instead (the dynamic-snitch + rapid-read-protection behaviour).
	SpeculativeReads bool
	// SpeculationThreshold is the degradation multiplier at which a
	// node counts as a straggler.
	SpeculationThreshold float64
	// CoordinatorConcurrency is the closed-loop in-flight op count the
	// coordinator overlaps waits across; backoff and timeout waits are
	// charged to the cluster clock divided by it.
	CoordinatorConcurrency float64
	// HintCap bounds each node's hinted-handoff buffer. 0 selects
	// DefaultHintCap; negative means unbounded. Overflow drops the hint,
	// counts Stats.HintsDropped, and marks the node for a full repair on
	// recovery, since hint replay alone can no longer converge it.
	HintCap int
	// BreakerFailures arms the per-replica-link circuit breaker: after
	// this many consecutive failed exchanges on one coordinator->replica
	// link (straggler timeouts, retry-exhausted transient failures, or
	// exchanges the network lost), the link opens and further attempts
	// against it fail fast — hinting writes and skipping reads — without
	// spending any coordinator wait, so one partitioned or straggling
	// replica cannot consume the coordinator's concurrency. 0 disables
	// the breaker.
	BreakerFailures int
	// BreakerCooldown is how long (virtual seconds) an open breaker
	// rejects attempts before letting one half-open probe through; a
	// probe failure re-opens the link for another cooldown, a probe
	// success closes it. Required (> 0) when BreakerFailures > 0.
	BreakerCooldown float64
	// RetryBudgetFrac throttles retry amplification per link: every
	// first attempt earns the link this fraction of a retry token
	// (capped at RetryTokenCap) and each backoff retry spends a whole
	// one, so a link that keeps failing cannot multiply load by
	// 1+MaxRetries. 0 disables the budget.
	RetryBudgetFrac float64
}

// RetryTokenCap bounds the per-link retry-budget bucket: a healthy
// stretch can bank at most this many retries for the next rough patch.
const RetryTokenCap = 10

// DefaultResilienceOptions returns the full resilience stack with
// calibrated defaults: up to 3 retries starting at 2 ms backoff, a
// 50 ms op timeout, and speculative reads around 4x-degraded nodes.
func DefaultResilienceOptions() ResilienceOptions {
	return ResilienceOptions{
		MaxRetries:             3,
		BackoffBase:            0.002,
		BackoffMax:             0.050,
		OpTimeout:              0.050,
		ExpectedOpSeconds:      0.002,
		SpeculativeReads:       true,
		SpeculationThreshold:   4,
		CoordinatorConcurrency: 64,
		HintCap:                DefaultHintCap,
	}
}

// ScaledTo returns r with its time constants scaled to a measured
// healthy per-op cost, as a dynamic snitch derives them from observed
// latency; the wall-clock defaults (milliseconds) would turn every wait
// into an eternity at the simulator's microsecond-scale ops.
func (r ResilienceOptions) ScaledTo(perOp float64) ResilienceOptions {
	r.BackoffBase = perOp
	r.BackoffMax = 25 * perOp
	r.ExpectedOpSeconds = perOp
	r.OpTimeout = 20 * perOp
	return r
}

// PassiveResilience returns the no-defense posture used by default:
// no retries, no timeouts, no speculation — only the hint-buffer bound,
// which is a memory-safety property rather than a serving-path defense.
func PassiveResilience() ResilienceOptions {
	return ResilienceOptions{
		CoordinatorConcurrency: 64,
		HintCap:                DefaultHintCap,
	}
}

// Validate reports option errors.
func (r ResilienceOptions) Validate() error {
	switch {
	case r.MaxRetries < 0:
		return fmt.Errorf("cluster: negative retry count %d", r.MaxRetries)
	case r.BackoffBase < 0 || r.BackoffMax < 0:
		return fmt.Errorf("cluster: negative backoff (base %v, max %v)", r.BackoffBase, r.BackoffMax)
	case r.OpTimeout < 0:
		return fmt.Errorf("cluster: negative op timeout %v", r.OpTimeout)
	case r.OpTimeout > 0 && r.ExpectedOpSeconds <= 0:
		return fmt.Errorf("cluster: op timeout needs a positive expected op time, got %v", r.ExpectedOpSeconds)
	case r.SpeculativeReads && r.SpeculationThreshold <= 1:
		return fmt.Errorf("cluster: speculation threshold must exceed 1, got %v", r.SpeculationThreshold)
	case r.BreakerFailures < 0:
		return fmt.Errorf("cluster: negative breaker failure threshold %d", r.BreakerFailures)
	case r.BreakerFailures > 0 && r.BreakerCooldown <= 0:
		return fmt.Errorf("cluster: breaker needs a positive cooldown, got %v", r.BreakerCooldown)
	case r.RetryBudgetFrac < 0:
		return fmt.Errorf("cluster: negative retry budget fraction %v", r.RetryBudgetFrac)
	}
	return nil
}

// SetResilience installs the coordinator's resilience options.
func (c *Cluster) SetResilience(opts ResilienceOptions) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	if opts.CoordinatorConcurrency <= 0 {
		opts.CoordinatorConcurrency = 64
	}
	if opts.HintCap == 0 {
		opts.HintCap = DefaultHintCap
	}
	c.res = opts
	return nil
}

// Resilience returns the active resilience options.
func (c *Cluster) Resilience() ResilienceOptions { return c.res }

// SetFaultInjector installs (or, with nil, removes) the per-attempt
// fault source consulted by the serving path.
func (c *Cluster) SetFaultInjector(fi FaultInjector) { c.injector = fi }

// slowness returns node i's straggler factor: the worse of its disk and
// CPU degradation multipliers (1 = healthy).
func (c *Cluster) slowness(i int) float64 {
	disk, cpu := c.nodes[i].Degradation()
	return math.Max(disk, cpu)
}

// timedOut reports whether node i is degraded beyond the coordinator's
// per-op patience, making every op against it time out.
func (c *Cluster) timedOut(i int) bool {
	return c.res.OpTimeout > 0 && c.slowness(i)*c.res.ExpectedOpSeconds > c.res.OpTimeout
}

// chargeWait accounts a coordinator wait (backoff, timeout) to the
// cluster clock, overlapped across the closed-loop in-flight ops.
//
//rafiki:hot
func (c *Cluster) chargeWait(seconds float64) {
	conc := c.res.CoordinatorConcurrency
	if conc < 1 {
		conc = 1
	}
	c.overhead += seconds / conc
	c.o.overhead.Set(c.overhead)
}

// attemptOp runs the breaker/timeout/retry protocol for one replica op
// and reports whether the op may proceed on node idx, after how much
// coordinator wait. An open circuit breaker rejects the attempt
// instantly (no wait charged at all); a straggler beyond the op timeout
// fails fast (charging the timeout wait); a transient failure is
// retried up to MaxRetries times with exponential backoff, subject to
// the link's retry budget.
//
//rafiki:hot
func (c *Cluster) attemptOp(idx int) (float64, bool) {
	if !c.breakerAllows(idx) {
		c.stats.BreakerRejections++
		c.stats.OpAttempts++
		return 0, false
	}
	if c.timedOut(idx) {
		c.stats.Timeouts++
		c.stats.OpAttempts++
		c.chargeWait(c.res.OpTimeout)
		c.breakerFailure(idx)
		return c.res.OpTimeout, false
	}
	c.stats.OpAttempts++
	if c.res.RetryBudgetFrac > 0 {
		c.retryTokens[idx] += c.res.RetryBudgetFrac
		if c.retryTokens[idx] > RetryTokenCap {
			c.retryTokens[idx] = RetryTokenCap
		}
	}
	if c.injector == nil || !c.injector.AttemptFails(idx, c.Clock()) {
		c.stats.OpSuccesses++
		return 0, true
	}
	c.stats.TransientFailures++
	backoff, waited := c.res.BackoffBase, 0.0
	for r := 0; r < c.res.MaxRetries; r++ {
		if c.res.RetryBudgetFrac > 0 {
			if c.retryTokens[idx] < 1 {
				c.stats.RetriesSuppressed++
				break
			}
			c.retryTokens[idx]--
		}
		c.stats.Retries++
		c.stats.OpAttempts++
		c.chargeWait(backoff)
		waited += backoff
		if !c.injector.AttemptFails(idx, c.Clock()) {
			c.stats.OpSuccesses++
			return waited, true
		}
		c.stats.TransientFailures++
		backoff *= 2
		if c.res.BackoffMax > 0 && backoff > c.res.BackoffMax {
			backoff = c.res.BackoffMax
		}
	}
	c.breakerFailure(idx)
	return waited, false
}

// breaker is one coordinator->replica link's circuit state.
type breaker struct {
	// fails counts consecutive failed exchanges while closed.
	fails int
	// open marks the tripped state; openUntil is when the cooldown ends
	// and halfOpen that the post-cooldown probe is in flight.
	open      bool
	openUntil float64
	halfOpen  bool
}

// breakerAllows reports whether the link's breaker admits an attempt
// against node idx right now. An open breaker past its cooldown admits
// exactly one half-open probe; its outcome (breakerFailure or
// breakerSuccess) decides whether the link re-opens or closes.
//
//rafiki:hot
func (c *Cluster) breakerAllows(idx int) bool {
	if c.res.BreakerFailures <= 0 {
		return true
	}
	b := &c.brk[idx]
	if !b.open {
		return true
	}
	if c.Clock() >= b.openUntil {
		b.halfOpen = true
		return true
	}
	return false
}

// breakerFailure records one failed exchange on the link to node idx:
// a straggler timeout, a retry-exhausted transient failure, or an
// exchange the network lost. Enough consecutive failures — or a single
// failed half-open probe — open (or re-open) the breaker.
//
//rafiki:hot
func (c *Cluster) breakerFailure(idx int) {
	if c.res.BreakerFailures <= 0 {
		return
	}
	b := &c.brk[idx]
	if b.open {
		// The half-open probe failed: back to fully open.
		b.openUntil = c.Clock() + c.res.BreakerCooldown
		b.halfOpen = false
		c.stats.BreakerOpens++
		return
	}
	b.fails++
	if b.fails >= c.res.BreakerFailures {
		b.open = true
		b.openUntil = c.Clock() + c.res.BreakerCooldown
		b.fails = 0
		c.stats.BreakerOpens++
	}
}

// breakerSuccess records one acknowledged exchange on the link to node
// idx, closing a half-open breaker and clearing the failure streak.
//
//rafiki:hot
func (c *Cluster) breakerSuccess(idx int) {
	if c.res.BreakerFailures <= 0 {
		return
	}
	b := &c.brk[idx]
	b.fails = 0
	if b.open {
		b.open = false
		b.halfOpen = false
	}
}

// addHint buffers a mutation owed to node idx, respecting the per-node
// hint cap. On overflow the hint is dropped and the node marked for a
// full repair: replaying the surviving hints can no longer converge it.
func (c *Cluster) addHint(idx int, h hint) {
	if cap := c.res.HintCap; cap > 0 && len(c.hints[idx]) >= cap {
		c.stats.HintsDropped++
		c.needRepair[idx] = true
		return
	}
	c.hints[idx] = append(c.hints[idx], h)
	c.stats.HintsStored++
}
