package core

import (
	"context"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dohpool/internal/dnscache"
	"dohpool/internal/dnswire"
	"dohpool/internal/metrics"
)

// Engine defaults.
const (
	// DefaultLookupTimeout bounds one coalesced Algorithm 1 run.
	DefaultLookupTimeout = 5 * time.Second
	// maxInlineGenerations caps the Algorithm 1 runs that callers are
	// waiting on at any one time; the leader of a miss beyond it waits
	// for a slot inside its run's LookupTimeout. The frontend admits up to
	// UDPQueue (1024) slow-path datagrams, and a random-subdomain flood
	// makes each one a generation of its own. A generation holds one
	// HTTP/2 stream per resolver, two while a hedge is out; resolvers
	// commonly allow 100 streams per connection (the floor RFC 9113
	// §6.5.2 recommends) and the DoH client opens at most 4 connections
	// to each. 64 inline runs plus DefaultRefreshConcurrency (8)
	// background ones put at most 144 streams on a resolver: every
	// primary exchange fits on one connection, hedges on a second.
	maxInlineGenerations = 64
)

// EngineConfig tunes the long-lived layers around Algorithm 1. The zero
// value gives a caching, coalescing, adaptively hedging engine with
// breaker defaults.
type EngineConfig struct {
	// CacheSize bounds the pool cache (entries). 0 uses
	// dnscache.DefaultCapacity; negative disables caching entirely.
	CacheSize int
	// CacheShards splits the pool cache into this many lock domains
	// (rounded up to a power of two) so cached lookups scale with cores
	// instead of serializing behind one mutex. 0 or negative sizes
	// automatically from GOMAXPROCS; 1 forces a single shard with strict
	// global LRU order.
	CacheShards int
	// MaxStale, when positive, serves an expired pool for up to this long
	// past its TTL while a background refresh runs (stale-while-
	// revalidate). Zero disables stale serving.
	MaxStale time.Duration
	// RefreshAhead, when in (0, 1], turns the engine from reactive to
	// always-warm: a background refresher re-runs Algorithm 1 for a
	// cached pool once it has lived RefreshAhead of its TTL (0.8 = at
	// 80% of lifetime), so hot keys are regenerated before they expire
	// and Lookup almost never generates inline. 0 disables refresh-ahead
	// (miss-driven generation only).
	RefreshAhead float64
	// RefreshMinHits is the refresh-ahead popularity threshold: only
	// entries with at least this many hits since their last background
	// refresh (lifetime hits for a never-refreshed entry) are refreshed;
	// keys nobody read in the last TTL window are left to expire and
	// regenerate on demand, so refresh traffic tracks live popularity,
	// not cache occupancy. 0 refreshes every cached entry.
	RefreshMinHits uint64
	// RefreshInterval is the refresher's cache-scan cadence. 0 uses
	// DefaultRefreshInterval.
	RefreshInterval time.Duration
	// RefreshConcurrency bounds how many background regenerations may
	// run at once; entries past the cap wait for the next scan, smearing
	// a correlated-expiry herd across ticks instead of fanning out to
	// every resolver simultaneously. 0 uses DefaultRefreshConcurrency.
	RefreshConcurrency int
	// RefreshBackoff is the base delay before re-attempting a key whose
	// background refresh failed, doubling per consecutive failure up to
	// 32× the base. 0 uses DefaultRefreshBackoff.
	RefreshBackoff time.Duration
	// HedgeDelay is how long to wait for a straggling resolver before
	// firing a backup attempt at it. Positive = fixed; 0 = adaptive
	// (2× the resolver's EWMA RTT, clamped).
	HedgeDelay time.Duration
	// DisableHedging turns straggler hedging off.
	DisableHedging bool
	// BreakerThreshold is the consecutive-failure count that opens a
	// resolver's circuit breaker. 0 uses DefaultBreakerThreshold;
	// negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects attempts.
	// 0 uses DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// TrustWindow is how many recent pool generations feed each
	// resolver's trust score (answer-length conduct, bogus-prefix
	// membership, consensus overlap, majority-vote survival). 0 uses
	// DefaultTrustWindow; negative disables trust tracking entirely.
	// Scoring happens only on the generation path — cached lookups never
	// touch it.
	TrustWindow int
	// TrustMinScore, when in (0, 1], turns trust scoring into
	// enforcement: a resolver whose windowed score falls below it has its
	// contributions quarantined from truncation and the combined pool
	// (while trusted contributors keep a strict majority), and stops
	// receiving straggler hedges. 0 keeps scoring observational only.
	// 0.5 is the recommended enforcing value: corroboration misses alone
	// can never push a resolver below it.
	TrustMinScore float64
	// LookupTimeout bounds one coalesced upstream consensus run
	// (the run is detached from any single caller's context, since many
	// callers may be waiting on it). 0 uses DefaultLookupTimeout.
	LookupTimeout time.Duration
	// Clock injects a time source for TTL tests. Nil uses time.Now.
	Clock func() time.Time
	// Metrics, when non-nil, receives the engine's, health tracker's and
	// pool cache's instruments (see the Metric* name constants). Nil
	// disables instrumentation at the cost of one nil check per event.
	Metrics *metrics.Registry
}

// Engine is the long-lived form of Algorithm 1: where Generator re-runs
// the full N-resolver DoH fan-out on every call, Engine layers a
// TTL-aware pool cache, singleflight request coalescing, per-resolver
// health tracking and straggler hedging on top, so a daemon serving heavy
// traffic touches the network only when consensus actually needs
// refreshing. Create one with NewEngine and share it between any number
// of goroutines; both dohpool.Client and the DNS Frontend sit on it.
type Engine struct {
	gen       *Generator
	cache     *dnscache.Store[*poolEntry] // nil when caching is disabled
	wire      *dnscache.WireCache         // nil when caching is disabled
	health    *HealthTracker
	trust     *TrustTracker // nil when TrustWindow < 0
	refresher *refresher    // nil unless RefreshAhead is enabled
	cfg       EngineConfig
	inst      engineInstruments

	flight flightGroup
	// inlineSlots is the maxInlineGenerations semaphore.
	inlineSlots chan struct{}
	// publishMu makes a generation's invalidate-and-publish of both caches
	// and restoreWire's read-pool-publish-wire exclusive, so the wire
	// cache never holds an entry built from a superseded pool.
	publishMu sync.Mutex

	networkRuns    atomic.Uint64 // actual Algorithm 1 executions
	inlineGens     atomic.Uint64 // executions led by a waiting caller
	backgroundGens atomic.Uint64 // executions led by refresh-ahead / stale refresh
	staleServes    atomic.Uint64

	// refreshMu orders refreshWG.Add against Close's Wait: a refresh
	// either starts before Close observes the engine closed, or not at
	// all. Lookups cross it on every refresh decision.
	//dohlint:hotlock
	refreshMu sync.Mutex
	refreshWG sync.WaitGroup
	closed    bool
}

// poolEntry is the pool cache's value: the generated pool plus the
// regeneration closure bound to the original lookup's (domain, type), so
// the background refresher can re-run Algorithm 1 for a key without
// reverse-parsing it.
type poolEntry struct {
	pool  *Pool
	regen func(context.Context) (*Pool, error)
	// spec carries the lookup's (domain, type) so regenerations —
	// inline, stale revalidation and refresh-ahead alike — can rebuild
	// the pre-encoded wire answer along with the pool. Zero for
	// dual-stack keys, which the DNS frontend never serves from wire.
	spec wireSpec
}

// wireSpec identifies what a wire cache entry answers. The zero value
// means "no wire entry for this key".
type wireSpec struct {
	domain string
	typ    dnswire.Type
}

// NewEngine validates gcfg, wires the health-tracking hedged querier in
// front of its Querier, and builds the engine.
func NewEngine(gcfg Config, ecfg EngineConfig) (*Engine, error) {
	if ecfg.LookupTimeout <= 0 {
		ecfg.LookupTimeout = DefaultLookupTimeout
	}
	if ecfg.RefreshAhead < 0 || ecfg.RefreshAhead > 1 {
		return nil, fmt.Errorf("engine: RefreshAhead %v outside [0, 1]", ecfg.RefreshAhead)
	}
	if ecfg.RefreshAhead > 0 && ecfg.CacheSize < 0 {
		// Refresh-ahead watches the cache; with caching disabled it
		// would silently never run — surface the conflict instead.
		return nil, fmt.Errorf("engine: RefreshAhead %v requires caching, but CacheSize %d disables it", ecfg.RefreshAhead, ecfg.CacheSize)
	}
	threshold := ecfg.BreakerThreshold
	switch {
	case threshold == 0:
		threshold = DefaultBreakerThreshold
	case threshold < 0:
		threshold = 0 // disabled
	}
	if ecfg.TrustMinScore < 0 || ecfg.TrustMinScore > 1 {
		return nil, fmt.Errorf("engine: TrustMinScore %v outside [0, 1]", ecfg.TrustMinScore)
	}
	health := NewHealthTracker(threshold, ecfg.BreakerCooldown, ecfg.Clock)
	if ecfg.Metrics != nil {
		health.instrument(newHealthInstruments(ecfg.Metrics, gcfg.Resolvers))
	}
	var trust *TrustTracker
	if ecfg.TrustWindow >= 0 {
		trust = NewTrustTracker(ecfg.TrustWindow, ecfg.TrustMinScore)
		if ecfg.Metrics != nil {
			trust.instrument(newTrustInstruments(ecfg.Metrics, gcfg.Resolvers))
		}
		gcfg.Trust = trust
	}
	if gcfg.Querier != nil {
		gcfg.Querier = &hedgedQuerier{
			inner:   gcfg.Querier,
			health:  health,
			trust:   trust,
			fixed:   ecfg.HedgeDelay,
			disable: ecfg.DisableHedging,
		}
	}
	gen, err := NewGenerator(gcfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		gen: gen, health: health, trust: trust, cfg: ecfg, inst: newEngineInstruments(ecfg.Metrics),
		inlineSlots: make(chan struct{}, maxInlineGenerations),
	}
	if ecfg.CacheSize >= 0 {
		e.cache = dnscache.NewShardedStore[*poolEntry](ecfg.CacheSize, ecfg.CacheShards, ecfg.Clock)
		registerCacheMetrics(ecfg.Metrics, e.cache)
		// The wire cache shadows the pool cache key-for-key, so it gets
		// the same bounds and clock.
		e.wire = dnscache.NewWireCache(ecfg.CacheSize, ecfg.CacheShards, ecfg.Clock)
		registerWireMetrics(ecfg.Metrics, e.wire)
	}
	if ecfg.RefreshAhead > 0 && e.cache != nil {
		e.refresher = newRefresher(e, ecfg)
		e.refresher.start()
	}
	return e, nil
}

// now reads the engine's clock (injectable for tests).
func (e *Engine) now() time.Time {
	if e.cfg.Clock != nil {
		return e.cfg.Clock()
	}
	return time.Now()
}

// ResolverCount returns N, the number of configured resolvers.
func (e *Engine) ResolverCount() int { return e.gen.ResolverCount() }

// ServeMajority implements Backend.
func (e *Engine) ServeMajority() bool { return e.gen.ServeMajority() }

// NetworkRuns returns how many Algorithm 1 fan-outs actually hit the
// network (cache hits and coalesced waiters do not).
func (e *Engine) NetworkRuns() uint64 { return e.networkRuns.Load() }

// InlineGenerations returns the subset of NetworkRuns led by a waiting
// caller (cache miss on the synchronous lookup path). With refresh-ahead
// enabled, a warm key's inline count stays flat across TTL expiries.
func (e *Engine) InlineGenerations() uint64 { return e.inlineGens.Load() }

// BackgroundGenerations returns the subset of NetworkRuns led by the
// refresh-ahead pipeline or a stale-triggered revalidation — runs no
// caller waited on.
func (e *Engine) BackgroundGenerations() uint64 { return e.backgroundGens.Load() }

// RefreshAttempts returns how many background refresh-ahead runs were
// launched (0 when refresh-ahead is disabled).
func (e *Engine) RefreshAttempts() uint64 {
	if e.refresher == nil {
		return 0
	}
	return e.refresher.attempts.Load()
}

// RefreshWins returns how many refresh-ahead runs replaced a cached pool
// before it expired.
func (e *Engine) RefreshWins() uint64 {
	if e.refresher == nil {
		return 0
	}
	return e.refresher.wins.Load()
}

// RefreshFailures returns how many refresh-ahead runs failed (the cached
// entry was kept and the key backed off).
func (e *Engine) RefreshFailures() uint64 {
	if e.refresher == nil {
		return 0
	}
	return e.refresher.failures.Load()
}

// StaleServes returns how many lookups were answered from an expired
// entry inside the MaxStale window.
func (e *Engine) StaleServes() uint64 { return e.staleServes.Load() }

// CacheStats reports pool-cache effectiveness (zero value when caching is
// disabled).
func (e *Engine) CacheStats() dnscache.Stats {
	if e.cache == nil {
		return dnscache.Stats{}
	}
	return e.cache.Stats()
}

// Health reports a per-resolver health snapshot.
func (e *Engine) Health() []ResolverHealth {
	return e.health.Snapshot(e.gen.cfg.Resolvers)
}

// Trust reports a per-resolver trust snapshot (nil when trust tracking is
// disabled via a negative TrustWindow).
func (e *Engine) Trust() []ResolverTrust {
	if e.trust == nil {
		return nil
	}
	return e.trust.Snapshot(e.gen.cfg.Resolvers)
}

// Ready reports breaker-aware readiness: false only when every
// resolver's circuit breaker is open, i.e. no upstream could currently
// be asked and any cache miss is guaranteed to fail.
func (e *Engine) Ready() bool {
	snap := e.Health()
	for _, h := range snap {
		if !h.CircuitOpen {
			return true
		}
	}
	return len(snap) == 0
}

// CachedPool is a point-in-time view of one cached consensus pool for
// introspection (the admin server's /poolz endpoint).
type CachedPool struct {
	// Key is the cache key: lower-cased domain plus query-type suffix.
	Key string
	// Addrs is the combined pool.
	Addrs []netip.Addr
	// TruncateLength is K, the per-resolver contribution size.
	TruncateLength int
	// Responding is how many resolvers contributed.
	Responding int
	// AttackerEntries counts pool members inside the attacker prefix
	// (198.18.0.0/15) — non-zero means a poisoned consensus is being
	// served.
	AttackerEntries int
	// Distrusted names the resolvers whose contributions trust
	// enforcement quarantined when this pool was generated.
	Distrusted []string
	// Age is the time since the pool was generated.
	Age time.Duration
	// Remaining is the TTL left; negative once expired (the entry may
	// still serve inside the stale window).
	Remaining time.Duration
	// Hits counts lookups answered by this entry across refreshes — the
	// refresher's popularity signal.
	Hits uint64
	// Refreshes counts background regenerations recorded for the entry.
	Refreshes uint64
	// LastRefresh reports how the most recent background refresh ended.
	LastRefresh dnscache.RefreshOutcome
}

// CachedPools snapshots the pool cache, shard by shard, most recently
// used first within each shard (empty when caching is disabled).
func (e *Engine) CachedPools() []CachedPool {
	if e.cache == nil {
		return nil
	}
	entries := e.cache.Entries()
	out := make([]CachedPool, len(entries))
	for i, en := range entries {
		out[i] = CachedPool{
			Key:             en.Key,
			Addrs:           append([]netip.Addr(nil), en.Val.pool.Addrs...),
			TruncateLength:  en.Val.pool.TruncateLength,
			Responding:      en.Val.pool.Responding(),
			AttackerEntries: en.Val.pool.AttackerEntries(),
			Distrusted:      en.Val.pool.DistrustedResolvers(),
			Age:             en.Age,
			Remaining:       en.Remaining,
			Hits:            en.Hits,
			Refreshes:       en.Refreshes,
			LastRefresh:     en.LastRefresh,
		}
	}
	return out
}

// EvictExpired drops cache entries dead beyond the stale window and
// returns how many were removed.
func (e *Engine) EvictExpired() int {
	if e.cache == nil {
		return 0
	}
	return e.cache.EvictExpired(e.cfg.MaxStale)
}

// Close stops the refresh-ahead loop and waits for in-flight background
// refresh runs to drain. The engine must not be used afterwards.
func (e *Engine) Close() error {
	if e.refresher != nil {
		// Stop the scan loop first so it cannot launch new refreshes
		// while we drain.
		e.refresher.stopLoop()
	}
	e.refreshMu.Lock()
	e.closed = true
	e.refreshMu.Unlock()
	e.refreshWG.Wait()
	return nil
}

// Lookup returns the consensus pool for (domain, typ), from cache when
// fresh, coalescing concurrent misses into one Algorithm 1 run.
func (e *Engine) Lookup(ctx context.Context, domain string, typ dnswire.Type) (*Pool, error) {
	// DNS names are case-insensitive (and stubs may randomize case,
	// RFC draft 0x20): normalize so casings share one cache entry.
	key := strings.ToLower(domain) + "|" + strconv.Itoa(int(typ))
	return e.lookup(ctx, key, wireSpec{domain: domain, typ: typ}, func(runCtx context.Context) (*Pool, error) {
		return e.gen.Lookup(runCtx, domain, typ)
	})
}

// LookupDualStack returns the consensus pool for both address families
// under the generator's dual-stack policy, with the same caching and
// coalescing as Lookup.
func (e *Engine) LookupDualStack(ctx context.Context, domain string) (*Pool, error) {
	key := strings.ToLower(domain) + "|ds|" + strconv.Itoa(int(e.gen.cfg.DualStack))
	return e.lookup(ctx, key, wireSpec{}, func(runCtx context.Context) (*Pool, error) {
		return e.gen.LookupDualStack(runCtx, domain)
	})
}

// lookup is the thin read path: a fresh (or serveably stale) cache entry
// is answered with no locks beyond one shard read-lock; everything else
// falls through to a coalesced inline generation.
func (e *Engine) lookup(ctx context.Context, key string, spec wireSpec, run func(context.Context) (*Pool, error)) (*Pool, error) {
	if e.cache != nil {
		if en, age, stale, ok := e.cache.GetStale(key, e.cfg.MaxStale); ok {
			if !stale {
				e.inst.hit.Inc()
				return snapshotPool(en.pool, age), nil
			}
			// Counted both here (lookup outcome) and in the cache's own
			// Stats.Stale (cache-layer view): the lookups_total family must
			// sum to total lookups, and the cache family mirrors Stats 1:1.
			e.staleServes.Add(1)
			e.inst.stale.Inc()
			// With the refresher enabled, stale revalidation goes through
			// its bookkeeping — respecting per-key failure backoff and the
			// concurrency cap instead of re-fanning-out on every stale hit.
			if e.refresher != nil {
				e.refresher.tryRefreshStale(key, spec, run)
			} else {
				e.refreshAsync(key, spec, run)
			}
			return snapshotPool(en.pool, en.pool.ttlDuration()), nil
		}
	}
	return e.fetch(ctx, key, spec, run, false)
}

// fetch coalesces concurrent misses for key into a single upstream run.
// background marks runs no caller is waiting on (stale revalidation,
// refresh-ahead) for the inline-vs-background generation split.
func (e *Engine) fetch(ctx context.Context, key string, spec wireSpec, run func(context.Context) (*Pool, error), background bool) (*Pool, error) {
	pool, err, leader := e.flight.Do(ctx, key, func() (*Pool, error) {
		// Detach from the individual caller: other waiters are coalesced
		// onto this run and must not die with whoever arrived first.
		runCtx, cancel := context.WithTimeout(context.Background(), e.cfg.LookupTimeout)
		defer cancel()
		e.networkRuns.Add(1)
		e.inst.network.Inc()
		if background {
			e.backgroundGens.Add(1)
			e.inst.backgroundGen.Inc()
		} else {
			e.inlineGens.Add(1)
			e.inst.inlineGen.Inc()
		}
		if !background {
			select {
			case e.inlineSlots <- struct{}{}:
				defer func() { <-e.inlineSlots }()
			case <-runCtx.Done():
				e.inst.errors.Inc()
				return nil, runCtx.Err()
			}
		}
		start := time.Now()
		p, err := run(runCtx)
		e.inst.genLatency.Observe(time.Since(start).Seconds())
		if err != nil {
			e.inst.errors.Inc()
			return nil, err
		}
		e.inst.quorum.Observe(float64(p.Responding()))
		// Poisoning visibility: how many entries of the freshly generated
		// pool sit in the attacker prefix (generation path only — the
		// cached-hit fast path never counts).
		e.inst.attackerEntries.Set(float64(p.AttackerEntries()))
		if e.cache != nil && p.ttlDuration() > 0 {
			// Invalidate → Put(pool) → Put(wire): a fast-path reader in
			// the window between the first two steps falls through to the
			// slow path, which already sees the new pool. Old wire bytes
			// are unreachable the moment the new pool is published.
			e.publishMu.Lock()
			e.wire.Invalidate(key)
			e.cache.Put(key, &poolEntry{pool: p, regen: run, spec: spec}, p.ttlDuration())
			if spec != (wireSpec{}) {
				if we := buildWireEntry(spec, p, e.gen.ServeMajority(), e.now()); we != nil {
					e.wire.Put(key, we)
				}
			}
			e.publishMu.Unlock()
		}
		return p, nil
	})
	if !leader {
		e.inst.coalesced.Inc()
	}
	if err != nil {
		return nil, err
	}
	return snapshotPool(pool, 0), nil
}

// refreshAsync kicks off a background consensus refresh for a stale key;
// the singleflight group guarantees at most one refresh per key runs.
func (e *Engine) refreshAsync(key string, spec wireSpec, run func(context.Context) (*Pool, error)) {
	e.refreshMu.Lock()
	if e.closed {
		e.refreshMu.Unlock()
		return
	}
	e.refreshWG.Add(1)
	e.refreshMu.Unlock()
	go func() {
		defer e.refreshWG.Done()
		_, _ = e.fetch(context.Background(), key, spec, run, true)
	}()
}

// ttlDuration converts the pool's TTL to a cache lifetime.
func (p *Pool) ttlDuration() time.Duration {
	return time.Duration(p.TTL) * time.Second
}

// snapshotPool returns a caller-owned view of a (possibly cached, shared)
// pool with its TTL decremented by the entry's age. Address slices are
// deep-copied since they are what callers iterate and mutate; Results
// entries share their per-resolver answer slices, which are never written
// after assembly.
func snapshotPool(p *Pool, age time.Duration) *Pool {
	out := &Pool{
		Addrs:          append([]netip.Addr(nil), p.Addrs...),
		TruncateLength: p.TruncateLength,
		Results:        append([]ResolverResult(nil), p.Results...),
		Majority:       append([]netip.Addr(nil), p.Majority...),
		TTL:            p.TTL,
	}
	aged := uint32(age / time.Second)
	if aged < out.TTL {
		out.TTL -= aged
	} else if out.TTL > 0 {
		// Aged to (or past) expiry but still being served: advertise the
		// minimum. A genuine TTL-0 pool stays 0 — uncacheable either way.
		out.TTL = 1
	}
	return out
}

// flightGroup is a minimal singleflight: concurrent Do calls for the same
// key share one execution of fn. Waiters honour their own context; the
// executing call does not (fn detaches itself).
type flightGroup struct {
	// Every cache-missing lookup serialises on this lock.
	//dohlint:hotlock
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	pool *Pool
	err  error
}

// Do returns the result of fn, shared with every concurrent caller of the
// same key. leader reports whether this caller executed fn.
func (g *flightGroup) Do(ctx context.Context, key string, fn func() (*Pool, error)) (pool *Pool, err error, leader bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall)
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.pool, c.err, false
		case <-ctx.Done():
			return nil, ctx.Err(), false
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.pool, c.err = fn()
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.pool, c.err, true
}
