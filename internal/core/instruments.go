package core

import (
	"strconv"
	"time"

	"dohpool/internal/dnscache"
	"dohpool/internal/dnswire"
	"dohpool/internal/metrics"
)

// Metric names exposed by the core package. Kept as constants so the
// admin tests and README reference table cannot drift from the code.
const (
	MetricEngineLookups            = "dohpool_engine_lookups_total"
	MetricEngineErrors             = "dohpool_engine_lookup_errors_total"
	MetricEngineGenSeconds         = "dohpool_engine_pool_generation_seconds"
	MetricEngineQuorum             = "dohpool_engine_quorum_resolvers"
	MetricEngineGenerations        = "dohpool_engine_generations_total"
	MetricRefreshAttempts          = "dohpool_refresh_attempts_total"
	MetricRefreshWins              = "dohpool_refresh_wins_total"
	MetricRefreshFailures          = "dohpool_refresh_failures_total"
	MetricCacheShardHits           = "dohpool_cache_shard_hits_total"
	MetricCacheHits                = "dohpool_cache_hits_total"
	MetricCacheMisses              = "dohpool_cache_misses_total"
	MetricCacheEvictions           = "dohpool_cache_evictions_total"
	MetricCacheExpirations         = "dohpool_cache_expirations_total"
	MetricCacheStaleServes         = "dohpool_cache_stale_serves_total"
	MetricCacheEntries             = "dohpool_cache_entries"
	MetricResolverTrust            = "dohpool_resolver_trust"
	MetricPoolAttackerEntries      = "dohpool_pool_attacker_entries"
	MetricGenerationsFiltered      = "dohpool_generations_filtered_total"
	MetricResolverRTT              = "dohpool_resolver_rtt_seconds"
	MetricResolverExchanges        = "dohpool_resolver_exchanges_total"
	MetricResolverHedges           = "dohpool_resolver_hedges_total"
	MetricResolverHedgeWins        = "dohpool_resolver_hedge_wins_total"
	MetricBreakerState             = "dohpool_resolver_breaker_open"
	MetricBreakerTransitions       = "dohpool_resolver_breaker_transitions_total"
	MetricFrontendQueries          = "dohpool_frontend_queries_total"
	MetricFrontendResponses        = "dohpool_frontend_responses_total"
	MetricFrontendInflight         = "dohpool_frontend_inflight_queries"
	MetricFrontendTCPConns         = "dohpool_frontend_tcp_connections"
	MetricFrontendDropped          = "dohpool_frontend_dropped_total"
	MetricFrontendWriteErrors      = "dohpool_frontend_write_errors_total"
	MetricFrontendUDPSocketPackets = "dohpool_frontend_udp_socket_packets_total"
	MetricFrontendUDPSocketDrops   = "dohpool_frontend_udp_socket_drops_total"
	MetricWireCacheHits            = "dohpool_wire_cache_hits_total"
	MetricWireCacheMisses          = "dohpool_wire_cache_misses_total"
	MetricWireCacheEntries         = "dohpool_wire_cache_entries"
	MetricFrontendLatency          = "dohpool_frontend_latency_seconds"
)

// Frontend transport labels: the values of the `proto` label on the
// frontend's query counters, in-flight gauges and connection gauges.
const (
	ProtoUDP = "udp"
	ProtoTCP = "tcp"
	ProtoDoT = "dot"
	ProtoDoH = "doh"
)

// engineInstruments holds the engine's pre-resolved instruments. The zero
// value (no registry) is fully usable: every method on a nil instrument
// no-ops.
type engineInstruments struct {
	hit           *metrics.Counter // lookups answered from a fresh cache entry
	stale         *metrics.Counter // lookups answered stale-while-revalidate
	coalesced     *metrics.Counter // lookups that joined an in-flight run
	network       *metrics.Counter // lookups that executed Algorithm 1
	inlineGen     *metrics.Counter // generations led by a waiting caller
	backgroundGen *metrics.Counter // generations led by refresh-ahead / stale refresh
	errors        *metrics.Counter
	genLatency    *metrics.Histogram
	quorum        *metrics.Histogram
	// attackerEntries is the poisoned-entry count of the most recently
	// generated pool (attacker-prefix members) — the live counterpart of
	// the offline experiments' "attacker fraction" column.
	attackerEntries *metrics.Gauge

	refreshAttempts *metrics.Counter
	refreshWins     *metrics.Counter
	refreshFailures *metrics.Counter
}

func newEngineInstruments(reg *metrics.Registry) engineInstruments {
	lookups := reg.CounterVec(MetricEngineLookups,
		"Engine lookups by outcome: cache_hit, stale_serve, coalesced (joined an in-flight run), network (executed Algorithm 1).",
		"outcome")
	generations := reg.CounterVec(MetricEngineGenerations,
		"Algorithm 1 executions by trigger: inline (a caller waited on a cache miss), background (refresh-ahead or stale revalidation).",
		"trigger")
	return engineInstruments{
		hit:           lookups.With("cache_hit"),
		stale:         lookups.With("stale_serve"),
		coalesced:     lookups.With("coalesced"),
		network:       lookups.With("network"),
		inlineGen:     generations.With("inline"),
		backgroundGen: generations.With("background"),
		errors: reg.Counter(MetricEngineErrors,
			"Algorithm 1 runs that failed (quorum not met, empty answers, all resolvers down)."),
		genLatency: reg.Histogram(MetricEngineGenSeconds,
			"Latency of one full Algorithm 1 pool generation (N-resolver DoH fan-out).",
			metrics.DurationBuckets()),
		quorum: reg.Histogram(MetricEngineQuorum,
			"Resolvers that contributed to each generated pool.",
			[]float64{1, 2, 3, 5, 7, 9, 11, 15}),
		attackerEntries: reg.Gauge(MetricPoolAttackerEntries,
			"Attacker-prefix (198.18.0.0/15) entries in the most recently generated pool."),
		refreshAttempts: reg.Counter(MetricRefreshAttempts,
			"Background refresh-ahead runs launched by the refresher."),
		refreshWins: reg.Counter(MetricRefreshWins,
			"Refresh-ahead runs that replaced a cached pool before it expired."),
		refreshFailures: reg.Counter(MetricRefreshFailures,
			"Refresh-ahead runs that failed (stale pool kept, key backed off)."),
	}
}

// registerCacheMetrics surfaces the pool cache's cumulative Stats struct
// as callback-backed counters, read live at exposition time so no second
// set of counters can drift from the cache's own, plus the per-shard hit
// distribution (a skewed distribution means the hot keys crowd one lock
// domain).
func registerCacheMetrics(reg *metrics.Registry, cache *dnscache.Store[*poolEntry]) {
	if reg == nil || cache == nil {
		return
	}
	stat := func(pick func(dnscache.Stats) uint64) func() float64 {
		return func() float64 { return float64(pick(cache.Stats())) }
	}
	shardHits := reg.CounterVec(MetricCacheShardHits,
		"Pool-cache hits per shard (lock domain), for hit-distribution introspection.",
		"shard")
	for i := 0; i < cache.ShardCount(); i++ {
		i := i
		shardHits.WithFunc(func() float64 { return float64(cache.ShardStat(i).Hits) },
			strconv.Itoa(i))
	}
	reg.CounterFunc(MetricCacheHits, "Pool-cache lookups answered from cache (including stale serves).",
		stat(func(s dnscache.Stats) uint64 { return s.Hits }))
	reg.CounterFunc(MetricCacheMisses, "Pool-cache lookups that found no usable entry.",
		stat(func(s dnscache.Stats) uint64 { return s.Misses }))
	reg.CounterFunc(MetricCacheEvictions, "Pool-cache entries evicted under capacity pressure.",
		stat(func(s dnscache.Stats) uint64 { return s.Evictions }))
	reg.CounterFunc(MetricCacheExpirations, "Pool-cache entries removed because their TTL (plus stale window) passed.",
		stat(func(s dnscache.Stats) uint64 { return s.Expirations }))
	reg.CounterFunc(MetricCacheStaleServes, "Pool-cache hits served past their TTL inside the stale window.",
		stat(func(s dnscache.Stats) uint64 { return s.Stale }))
	reg.GaugeFunc(MetricCacheEntries, "Pool-cache live entries.",
		func() float64 { return float64(cache.Len()) })
}

// resolverSeries holds one resolver's pre-resolved instruments, so the
// per-exchange path touches only atomic operations — no label rendering
// and no family lock.
type resolverSeries struct {
	rtt         *metrics.Gauge
	okExch      *metrics.Counter
	errExch     *metrics.Counter
	hedges      *metrics.Counter
	hedgeWins   *metrics.Counter
	breakerOpen *metrics.Gauge
	opened      *metrics.Counter
	closed      *metrics.Counter
}

// healthInstruments holds the per-resolver instruments fed by the
// HealthTracker. The zero value no-ops.
type healthInstruments struct {
	byURL map[string]resolverSeries

	// Vec handles remain as the slow-path fallback for URLs that were
	// not configured at construction (defensive; the hedged querier only
	// ever asks configured endpoints).
	rtt         *metrics.GaugeVec
	exchanges   *metrics.CounterVec
	hedgesVec   *metrics.CounterVec
	hedgeWins   *metrics.CounterVec
	breakerVec  *metrics.GaugeVec
	transitions *metrics.CounterVec
}

func newHealthInstruments(reg *metrics.Registry, endpoints []Endpoint) healthInstruments {
	inst := healthInstruments{
		byURL: make(map[string]resolverSeries, len(endpoints)),
		rtt: reg.GaugeVec(MetricResolverRTT,
			"EWMA round-trip time of successful DoH exchanges, per resolver.", "resolver"),
		exchanges: reg.CounterVec(MetricResolverExchanges,
			"Completed DoH exchanges per resolver by result (ok, error).", "resolver", "result"),
		hedgesVec: reg.CounterVec(MetricResolverHedges,
			"Backup attempts launched because the primary attempt straggled.", "resolver"),
		hedgeWins: reg.CounterVec(MetricResolverHedgeWins,
			"Hedged attempts whose backup answered first.", "resolver"),
		breakerVec: reg.GaugeVec(MetricBreakerState,
			"1 while the resolver's circuit breaker is open, else 0.", "resolver"),
		transitions: reg.CounterVec(MetricBreakerTransitions,
			"Circuit-breaker state changes per resolver (to=open, to=closed).", "resolver", "to"),
	}
	for _, ep := range endpoints {
		label := ep.Name
		if label == "" {
			label = ep.URL
		}
		s := inst.resolve(label)
		// Pre-seeding the steady-state gauges also makes a scrape at
		// startup show every configured resolver.
		s.rtt.Set(0)
		s.breakerOpen.Set(0)
		inst.byURL[ep.URL] = s
	}
	return inst
}

// resolve renders one label's series through the vec slow path.
func (hi *healthInstruments) resolve(label string) resolverSeries {
	return resolverSeries{
		rtt:         hi.rtt.With(label),
		okExch:      hi.exchanges.With(label, "ok"),
		errExch:     hi.exchanges.With(label, "error"),
		hedges:      hi.hedgesVec.With(label),
		hedgeWins:   hi.hedgeWins.With(label),
		breakerOpen: hi.breakerVec.With(label),
		opened:      hi.transitions.With(label, "open"),
		closed:      hi.transitions.With(label, "closed"),
	}
}

// series returns url's pre-resolved instruments (fast path), falling
// back to rendering by URL for endpoints unknown at construction.
func (hi *healthInstruments) series(url string) resolverSeries {
	if s, ok := hi.byURL[url]; ok {
		return s
	}
	return hi.resolve(url)
}

func (hi *healthInstruments) observe(url string, ewma time.Duration, err error, openedNow, closedNow bool) {
	s := hi.series(url)
	if err != nil {
		s.errExch.Inc()
	} else {
		s.okExch.Inc()
		s.rtt.Set(ewma.Seconds())
	}
	if openedNow {
		s.opened.Inc()
		s.breakerOpen.Set(1)
	}
	if closedNow {
		s.closed.Inc()
		s.breakerOpen.Set(0)
	}
}

// protoInstruments is one serving transport's instrument set: query
// counter, in-flight gauge and — for the stream transports — the
// connection gauge. Nil members no-op, so the zero value is usable.
type protoInstruments struct {
	queries   *metrics.Counter
	inflight  *metrics.Gauge
	conns     *metrics.Gauge
	writeErrs *metrics.Counter
	latency   *metrics.Histogram
}

// udpSocketInstruments is one SO_REUSEPORT socket's pre-resolved
// counters: datagrams its reader pulled from the kernel and datagrams
// it shed over the UDPQueue budget. Together with the socket label they
// make kernel flow-steering imbalance observable — a hot socket shows
// up as a skewed packets distribution, not as an unexplained latency
// tail. Nil members no-op.
type udpSocketInstruments struct {
	packets *metrics.Counter
	drops   *metrics.Counter
}

// frontendInstruments holds the DNS frontend's instruments, one series
// set per serving transport. The zero value no-ops.
type frontendInstruments struct {
	udp, tcp, dot, doh protoInstruments
	rcodes             *metrics.CounterVec
	// rcodeOf pre-resolves the response codes the frontend emits so the
	// per-response path is one map read plus an atomic add.
	rcodeOf map[dnswire.RCode]*metrics.Counter
	dropped *metrics.Counter
	// udpSockets holds one counter pair per SO_REUSEPORT reader, indexed
	// like Frontend.socks.
	udpSockets []udpSocketInstruments
}

// newFrontendInstruments pre-resolves the per-transport series. The
// plaintext udp/tcp pair always serves; dot/doh series are registered
// only when the corresponding encrypted listener is configured, so a
// plaintext-only frontend's exposition stays free of dead series.
// udpSockets is the frontend's reader-socket count; each socket gets a
// pre-resolved packets/drops counter pair labelled by its index.
func newFrontendInstruments(reg *metrics.Registry, dot, doh bool, udpSockets int) frontendInstruments {
	queries := reg.CounterVec(MetricFrontendQueries,
		"DNS queries received by the frontend, per transport (udp, tcp, dot, doh).", "proto")
	inflight := reg.GaugeVec(MetricFrontendInflight,
		"Queries currently being answered, per transport.", "proto")
	conns := reg.GaugeVec(MetricFrontendTCPConns,
		"Currently tracked TCP connections, per transport carried on them (tcp, dot, doh).", "proto")
	writeErrs := reg.CounterVec(MetricFrontendWriteErrors,
		"Responses the frontend failed to write back to the client, per transport (udp, tcp, dot).", "proto")
	// Slow-path serve latency only: queries answered by the UDP
	// wire-format answer cache never reach respond() and are deliberately
	// not timed — the fast path's whole budget is ~150ns and a clock read
	// plus histogram observe would be a measurable fraction of it.
	latency := reg.HistogramVec(MetricFrontendLatency,
		"Slow-path serve latency per transport (engine lookup through response build; wire-cache hits excluded).",
		frontendLatencyBuckets(), "proto")
	inst := frontendInstruments{
		udp: protoInstruments{queries: queries.With(ProtoUDP), inflight: inflight.With(ProtoUDP), writeErrs: writeErrs.With(ProtoUDP), latency: latency.With(ProtoUDP)},
		tcp: protoInstruments{queries: queries.With(ProtoTCP), inflight: inflight.With(ProtoTCP), conns: conns.With(ProtoTCP), writeErrs: writeErrs.With(ProtoTCP), latency: latency.With(ProtoTCP)},
		rcodes: reg.CounterVec(MetricFrontendResponses,
			"DNS responses sent by the frontend, per response code.", "rcode"),
		dropped: reg.Counter(MetricFrontendDropped,
			"UDP datagrams shed: over the UDPQueue budget of slow-path datagrams in flight, or unanswered when the frontend closed."),
	}
	sockPackets := reg.CounterVec(MetricFrontendUDPSocketPackets,
		"Datagrams read per SO_REUSEPORT UDP socket, for flow-steering balance introspection.", "socket")
	sockDrops := reg.CounterVec(MetricFrontendUDPSocketDrops,
		"Datagrams shed per SO_REUSEPORT UDP socket (see dohpool_frontend_dropped_total).", "socket")
	inst.udpSockets = make([]udpSocketInstruments, udpSockets)
	for i := range inst.udpSockets {
		label := strconv.Itoa(i)
		inst.udpSockets[i] = udpSocketInstruments{
			packets: sockPackets.With(label),
			drops:   sockDrops.With(label),
		}
	}
	if dot {
		inst.dot = protoInstruments{queries: queries.With(ProtoDoT), inflight: inflight.With(ProtoDoT), conns: conns.With(ProtoDoT), writeErrs: writeErrs.With(ProtoDoT), latency: latency.With(ProtoDoT)}
	}
	if doh {
		inst.doh = protoInstruments{queries: queries.With(ProtoDoH), inflight: inflight.With(ProtoDoH), conns: conns.With(ProtoDoH), latency: latency.With(ProtoDoH)}
	}
	if reg != nil {
		inst.rcodeOf = make(map[dnswire.RCode]*metrics.Counter)
		for _, rc := range []dnswire.RCode{
			dnswire.RCodeSuccess, dnswire.RCodeFormErr, dnswire.RCodeServFail,
			dnswire.RCodeNXDomain, dnswire.RCodeNotImp, dnswire.RCodeRefused,
		} {
			inst.rcodeOf[rc] = inst.rcodes.With(rc.String())
		}
	}
	return inst
}

// frontendLatencyBuckets is the serve-latency ladder: log-spaced from
// 10µs (a warm engine-cache hit through the slow path) to 10s (a
// full Algorithm 1 fan-out against slow resolvers), 5 buckets per
// decade so tail quantiles keep constant relative precision.
func frontendLatencyBuckets() []float64 {
	return metrics.LogBuckets(10e-6, 10, 5)
}

// rcode returns the response-code counter, pre-resolved for the codes
// the frontend emits.
func (fi *frontendInstruments) rcode(rc dnswire.RCode) *metrics.Counter {
	if c, ok := fi.rcodeOf[rc]; ok {
		return c
	}
	return fi.rcodes.With(rc.String())
}
