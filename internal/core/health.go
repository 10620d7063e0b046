package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dohpool/internal/dnswire"
)

// ErrCircuitOpen reports a resolver skipped because its circuit breaker is
// open (too many consecutive failures); the resolver counts as failed for
// quorum purposes without burning a network attempt.
var ErrCircuitOpen = errors.New("resolver circuit breaker open")

// Health-tracking defaults.
const (
	// DefaultBreakerThreshold is how many consecutive failures open a
	// resolver's circuit breaker.
	DefaultBreakerThreshold = 3
	// DefaultBreakerCooldown is how long an open breaker rejects attempts
	// before admitting a probe.
	DefaultBreakerCooldown = 10 * time.Second
	// ewmaAlpha weights new RTT samples in the moving average.
	ewmaAlpha = 0.25
	// minHedgeDelay floors the adaptive hedge delay so a lucky fast sample
	// cannot make every later query hedge immediately.
	minHedgeDelay = 2 * time.Millisecond
	// maxHedgeDelay caps the adaptive hedge delay; beyond this the
	// per-query timeout is the real backstop.
	maxHedgeDelay = 2 * time.Second
)

// ResolverHealth is a point-in-time snapshot of one resolver's health.
type ResolverHealth struct {
	Name string
	URL  string
	// EWMARTT is the exponentially weighted moving average of successful
	// exchange RTTs (zero before the first success).
	EWMARTT time.Duration
	// Successes and Failures count completed exchanges.
	Successes uint64
	Failures  uint64
	// Hedges counts backup attempts fired because the primary straggled.
	Hedges uint64
	// ConsecutiveFailures is the current failure streak.
	ConsecutiveFailures int
	// CircuitOpen reports whether the breaker currently rejects attempts.
	CircuitOpen bool
}

// HealthTracker maintains per-resolver EWMA RTT and a consecutive-failure
// circuit breaker, keyed by endpoint URL. All methods are safe for
// concurrent use.
type HealthTracker struct {
	mu        sync.Mutex
	states    map[string]*resolverState
	threshold int // <= 0 disables the breaker
	cooldown  time.Duration
	now       func() time.Time
	inst      healthInstruments
}

type resolverState struct {
	ewma      time.Duration
	successes uint64
	failures  uint64
	hedges    uint64
	streak    int
	openUntil time.Time
}

// NewHealthTracker builds a tracker. threshold <= 0 disables the breaker;
// cooldown <= 0 uses DefaultBreakerCooldown; clock nil uses time.Now.
func NewHealthTracker(threshold int, cooldown time.Duration, clock func() time.Time) *HealthTracker {
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	if clock == nil {
		clock = time.Now
	}
	return &HealthTracker{
		states:    make(map[string]*resolverState),
		threshold: threshold,
		cooldown:  cooldown,
		now:       clock,
	}
}

// instrument attaches metric instruments fed by Observe and the hedging
// layer. Call before the tracker sees traffic (NewEngine does).
func (h *HealthTracker) instrument(inst healthInstruments) {
	h.inst = inst
}

func (h *HealthTracker) state(url string) *resolverState {
	st, ok := h.states[url]
	if !ok {
		st = &resolverState{}
		h.states[url] = st
	}
	return st
}

// Allow reports whether an attempt against url may proceed. An open
// breaker rejects attempts until its cooldown passes, then admits a probe
// (half-open); the probe's Observe outcome closes or re-opens the circuit.
func (h *HealthTracker) Allow(url string) bool {
	if h.threshold <= 0 {
		return true
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.state(url)
	if st.streak < h.threshold {
		return true
	}
	if h.now().Before(st.openUntil) {
		return false
	}
	// Half-open: admit this probe and push the next one a cooldown out so
	// a thundering herd cannot pile onto a struggling resolver.
	st.openUntil = h.now().Add(h.cooldown)
	return true
}

// Observe records the outcome of one exchange with url.
func (h *HealthTracker) Observe(url string, rtt time.Duration, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.state(url)
	if err != nil {
		st.failures++
		st.streak++
		if h.threshold > 0 && st.streak >= h.threshold {
			st.openUntil = h.now().Add(h.cooldown)
		}
		// streak == threshold exactly at the closed→open crossing; later
		// failures only extend an already-open breaker.
		h.inst.observe(url, st.ewma, err, h.threshold > 0 && st.streak == h.threshold, false)
		return
	}
	st.successes++
	closedNow := h.threshold > 0 && st.streak >= h.threshold
	st.streak = 0
	st.openUntil = time.Time{}
	if st.ewma == 0 {
		st.ewma = rtt
	} else {
		st.ewma = time.Duration((1-ewmaAlpha)*float64(st.ewma) + ewmaAlpha*float64(rtt))
	}
	h.inst.observe(url, st.ewma, nil, false, closedNow)
}

// hedgeDelay returns how long to wait for a primary attempt against url
// before firing a backup. A positive fixed delay wins; otherwise the delay
// adapts to the resolver's EWMA RTT (2×, clamped), and 0 — no history
// yet — means "do not hedge".
func (h *HealthTracker) hedgeDelay(url string, fixed time.Duration) time.Duration {
	if fixed > 0 {
		return fixed
	}
	h.mu.Lock()
	ewma := h.state(url).ewma
	h.mu.Unlock()
	if ewma == 0 {
		return 0
	}
	d := 2 * ewma
	if d < minHedgeDelay {
		d = minHedgeDelay
	}
	if d > maxHedgeDelay {
		d = maxHedgeDelay
	}
	return d
}

func (h *HealthTracker) recordHedge(url string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.state(url).hedges++
	h.inst.series(url).hedges.Inc()
}

// recordHedgeWin notes that a backup attempt, not the primary, produced
// the answer.
func (h *HealthTracker) recordHedgeWin(url string) {
	h.inst.series(url).hedgeWins.Inc()
}

// Snapshot reports health for each endpoint (unknown endpoints yield a
// zero-valued entry).
func (h *HealthTracker) Snapshot(endpoints []Endpoint) []ResolverHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.now()
	out := make([]ResolverHealth, len(endpoints))
	for i, ep := range endpoints {
		st := h.state(ep.URL)
		out[i] = ResolverHealth{
			Name:                ep.Name,
			URL:                 ep.URL,
			EWMARTT:             st.ewma,
			Successes:           st.successes,
			Failures:            st.failures,
			Hedges:              st.hedges,
			ConsecutiveFailures: st.streak,
			CircuitOpen:         h.threshold > 0 && st.streak >= h.threshold && now.Before(st.openUntil),
		}
	}
	return out
}

// hedgedQuerier wraps a Querier with the health tracker: it fails fast on
// open breakers, fires one backup attempt when the primary straggles past
// the hedge delay (RFC 8305 "happy eyeballs" spirit, applied per
// resolver), and feeds every outcome back into the tracker. Algorithm 1's
// quorum and truncation semantics are untouched — hedging only re-asks the
// same resolver, never substitutes a different one. With a trust tracker
// wired in, hedging is weighted by trust: a distrusted resolver gets no
// backup attempts — its answer will be quarantined anyway, so burning a
// second exchange on it only adds load the attacker controls.
type hedgedQuerier struct {
	inner   Querier
	health  *HealthTracker
	trust   *TrustTracker // nil: hedge on health alone
	fixed   time.Duration // > 0: fixed hedge delay; 0: adaptive
	disable bool
}

// Query implements Querier.
func (h *hedgedQuerier) Query(ctx context.Context, url, name string, typ dnswire.Type) (*dnswire.Message, error) {
	if !h.health.Allow(url) {
		return nil, fmt.Errorf("%s: %w", url, ErrCircuitOpen)
	}
	start := time.Now()
	resp, err := h.query(ctx, url, name, typ)
	h.health.Observe(url, time.Since(start), err)
	return resp, err
}

func (h *hedgedQuerier) query(parent context.Context, url, name string, typ dnswire.Type) (*dnswire.Message, error) {
	var delay time.Duration
	if !h.disable && (h.trust == nil || h.trust.Trusted(url)) {
		delay = h.health.hedgeDelay(url, h.fixed)
	}
	if delay <= 0 {
		return h.inner.Query(parent, url, name, typ)
	}

	// The primary attempt runs right here, on the caller's goroutine; the
	// backup gets one (the timer's) only if the hedge delay passes first,
	// as it does for the straggling few. Both run under ctx: a successful
	// backup cancels it to stop the primary, and returning cancels it to
	// stop whatever is still out, so the callback cannot outlive this call
	// by more than the time inner takes to notice (its send is buffered).
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	type outcome struct {
		resp *dnswire.Message
		err  error
	}
	backup := make(chan outcome, 1)
	timer := time.AfterFunc(delay, func() {
		growstack()
		h.health.recordHedge(url)
		resp, err := h.inner.Query(ctx, url, name, typ)
		if err == nil {
			cancel()
		}
		backup <- outcome{resp, err}
	})
	resp, err := h.inner.Query(ctx, url, name, typ)
	if timer.Stop() || err == nil {
		return resp, err // no backup was started, or the primary beat it
	}
	select {
	case b := <-backup:
		if b.err == nil {
			h.health.recordHedgeWin(url)
		}
		return b.resp, b.err
	case <-parent.Done():
		return nil, parent.Err()
	}
}
