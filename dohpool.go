// Package dohpool is the public API of the distributed-DoH secure server
// pool generator, a reproduction of "Secure Consensus Generation with
// Distributed DoH" (Jeitner, Shulman, Waidner — DSN-S 2020).
//
// Applications that need a server pool with an honest majority (Chronos
// NTP, cryptocurrency bootstrapping, …) traditionally obtain it with one
// plain DNS query — a single point the attacker can poison. This package
// instead queries the pool domain through N independent DNS-over-HTTPS
// resolvers and combines the answers per the paper's Algorithm 1:
//
//  1. query every configured DoH resolver over its authenticated channel,
//  2. truncate every answer list to the length of the shortest list
//     (defeating response-inflation attacks),
//  3. concatenate the truncated lists, keeping duplicates (each
//     occurrence counts as an individual server).
//
// An attacker controlling a fraction x of the resolvers (or the paths
// behind them) then controls exactly the fraction x of the pool — so an
// application that tolerates a minority of bad servers (like Chronos)
// stays secure as long as a majority of resolvers is clean, and the
// probability of compromising ⌈xN⌉ independent resolvers falls
// exponentially in N.
//
// # Quick start
//
//	client, err := dohpool.New(dohpool.Config{
//		Resolvers: []dohpool.Resolver{
//			{Name: "google", URL: "https://dns.google/dns-query"},
//			{Name: "cloudflare", URL: "https://cloudflare-dns.com/dns-query"},
//			{Name: "quad9", URL: "https://dns.quad9.net/dns-query"},
//		},
//	})
//	if err != nil { ... }
//	pool, err := client.LookupPool(ctx, "pool.ntp.org")
//	// pool.Addrs is the combined pool; pool.TruncateLength the
//	// per-resolver contribution K.
//
// A Client is a long-lived consensus engine, not a one-shot runner:
// results are cached in a sharded TTL-aware pool cache until the minimum
// upstream answer TTL expires, concurrent lookups for the same domain
// coalesce into one Algorithm 1 run, straggling resolvers are hedged
// with a backup attempt, and persistently failing resolvers trip a
// circuit breaker. With RefreshAhead set, a background pipeline
// regenerates popular pools before they expire, so hot domains are
// always warm and never pay an inline fan-out after warmup. The
// CacheSize, CacheShards, StaleWhileRevalidate, RefreshAhead,
// RefreshMinHits, HedgeDelay and Breaker* knobs in Config tune these
// layers.
//
// For legacy applications, Serve starts a standard-compatible plain-DNS
// front-end (UDP and TCP, RFC 7766) whose every answer is generated by
// Algorithm 1 through the engine, so pointing resolv.conf at it is the
// only integration step (the paper's "backward-compatible" deployment
// mode).
package dohpool

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"os"
	"runtime/debug"
	"sync/atomic"
	"time"

	"dohpool/internal/admin"
	"dohpool/internal/analysis"
	"dohpool/internal/attack"
	"dohpool/internal/core"
	"dohpool/internal/dnswire"
	"dohpool/internal/doh"
	"dohpool/internal/metrics"
	"dohpool/internal/testpki"
)

// Resolver identifies one DoH resolver by a human-readable name and its
// RFC 8484 endpoint URL.
type Resolver struct {
	Name string
	URL  string
}

// DualStackPolicy selects how A and AAAA lookups combine in
// LookupPoolDualStack (the paper's footnote 1).
type DualStackPolicy int

// Dual-stack policies.
const (
	// DualStackIndividual runs Algorithm 1 per address family; each
	// family individually carries the honest-majority guarantee.
	DualStackIndividual DualStackPolicy = DualStackPolicy(core.DualStackIndividual)
	// DualStackUnion merges each resolver's A and AAAA answers before
	// truncation; the guarantee holds for the union.
	DualStackUnion DualStackPolicy = DualStackPolicy(core.DualStackUnion)
)

// Config configures a Client.
type Config struct {
	// Resolvers is the list of distributed DoH resolvers. The security
	// analysis wants at least 3; more is exponentially better.
	Resolvers []Resolver
	// TLSConfig optionally overrides channel trust (private CAs,
	// testbeds). Nil uses the system trust store.
	TLSConfig *tls.Config
	// UseGET switches to RFC 8484 GET requests (cacheable by HTTP
	// intermediaries); default is POST.
	UseGET bool
	// UsePadding pads queries to RFC 8467's 128-octet blocks (and makes
	// compliant servers pad responses), hiding which pool domain is being
	// resolved from a traffic observer.
	UsePadding bool
	// MinResolvers is the quorum of resolvers that must answer. 0 means
	// all of them — the strictest and default choice, since silently
	// proceeding with fewer weakens the consensus bound.
	MinResolvers int
	// WithMajority additionally computes Pool.Majority, the addresses
	// confirmed by more than half of the resolvers (for applications
	// without Chronos-style tolerance of bad minorities).
	WithMajority bool
	// Sequential disables the concurrent fan-out (diagnostics only).
	Sequential bool
	// DualStack selects the LookupPoolDualStack policy.
	DualStack DualStackPolicy
	// QueryTimeout bounds each individual resolver exchange.
	QueryTimeout time.Duration
	// HTTPClient optionally injects the HTTP client used for every DoH
	// exchange (tests, instrumented transports). Nil builds a pooled
	// client shared across resolvers.
	HTTPClient *http.Client

	// Grouped configuration, one sub-struct per concern. The flat
	// fields below are deprecated aliases kept so existing callers
	// compile and behave identically. Precedence: the grouped field
	// wins when set (any non-zero value — negative sentinels count as
	// set); booleans merge with OR, since a bool cannot distinguish
	// "explicitly false" from "unset". See each sub-struct's docs in
	// config.go for the field-level semantics.

	// Cache groups the consensus-cache knobs.
	Cache CacheConfig
	// Refresh groups the always-warm refresh-ahead pipeline knobs.
	Refresh RefreshConfig
	// Health groups straggler-hedging and circuit-breaker knobs.
	Health HealthConfig
	// Trust groups resolver trust-scoring knobs.
	Trust TrustConfig
	// Chaos groups attack-injection knobs: the payload adversary plus
	// the network-fault layer (Chaos.Net, which has no flat aliases).
	Chaos ChaosConfig
	// Serve groups the serving-plane knobs (frontend sizing, encrypted
	// listeners, TLS identity, admin server).
	Serve ServeConfig

	// CacheSize bounds the TTL-aware consensus cache (entries). 0 uses
	// the default capacity; negative disables caching, restoring the
	// seed's fan-out-per-call behaviour.
	//
	// Deprecated: use Cache.Size.
	CacheSize int
	// CacheShards splits the consensus cache into this many lock domains
	// (rounded up to a power of two) so cached lookups scale with cores.
	// 0 sizes automatically from GOMAXPROCS; 1 forces a single shard
	// with strict global LRU order.
	//
	// Deprecated: use Cache.Shards.
	CacheShards int
	// StaleWhileRevalidate, when positive, serves an expired pool for up
	// to this long past its TTL while a background refresh runs. Zero
	// disables stale serving (unless the deprecated MaxStale is set).
	//
	// Deprecated: use Cache.StaleWhileRevalidate.
	StaleWhileRevalidate time.Duration
	// MaxStale is the oldest name for Cache.StaleWhileRevalidate, kept
	// for compatibility; it loses to both newer spellings.
	//
	// Deprecated: use Cache.StaleWhileRevalidate.
	MaxStale time.Duration
	// RefreshAhead, when in (0, 1], turns on the always-warm pipeline: a
	// cached pool that has lived this fraction of its TTL (0.8 = at 80%
	// of lifetime) is regenerated in the background before it expires,
	// so hot domains never pay an inline Algorithm 1 fan-out after
	// warmup. 0 keeps the miss-driven behaviour.
	//
	// Deprecated: use Refresh.Ahead.
	RefreshAhead float64
	// RefreshMinHits is the refresh-ahead popularity threshold: only
	// pools with at least this many cache hits since their last
	// background refresh stay on the always-warm pipeline; keys nobody
	// read in the last TTL window expire and regenerate on demand.
	// 0 uses the default of 1 — refreshing unread pools forever is a
	// resolver-load footgun the library will not default into.
	//
	// Deprecated: use Refresh.MinHits.
	RefreshMinHits uint64
	// HedgeDelay is how long to wait for a straggling resolver before
	// firing a backup attempt at the same resolver. Positive = fixed;
	// 0 = adaptive (2× the resolver's EWMA RTT, clamped).
	//
	// Deprecated: use Health.HedgeDelay.
	HedgeDelay time.Duration
	// DisableHedging turns straggler hedging off entirely.
	//
	// Deprecated: use Health.DisableHedging.
	DisableHedging bool
	// BreakerThreshold is the consecutive-failure count that opens a
	// resolver's circuit breaker (fail fast instead of burning a network
	// attempt). 0 uses the default (3); negative disables the breaker.
	//
	// Deprecated: use Health.BreakerThreshold.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects attempts before
	// admitting a probe (default 10s).
	//
	// Deprecated: use Health.BreakerCooldown.
	BreakerCooldown time.Duration
	// TrustWindow is how many recent pool generations feed each
	// resolver's trust score: per generation a resolver is judged on
	// answer-length conduct (inflation/shortfall against the consensus
	// reference), bogus-prefix membership, overlap with the other
	// resolvers' answers, and majority-vote survival. 0 uses the default
	// window (16); negative disables trust tracking. Scoring runs only
	// when a pool is generated — cached lookups never pay for it.
	//
	// Deprecated: use Trust.Window.
	TrustWindow int
	// TrustMinScore, when in (0, 1], enforces trust: a resolver whose
	// windowed score falls below it has its answers quarantined from
	// pool generation (so it can neither inflate the pool nor drag the
	// truncation length to zero) and stops receiving straggler hedges —
	// for as long as the remaining trusted resolvers keep a strict
	// majority. 0 keeps scoring observational (metrics/trustz only).
	// The recommended enforcing value is 0.5.
	//
	// Deprecated: use Trust.MinScore.
	TrustMinScore float64
	// ChaosPayload, when non-empty, switches the client into chaos mode:
	// an attack.Forger is interposed at the engine's transport seam so
	// the full stack — cache, coalescing, hedging, refresh-ahead, trust
	// scoring — runs attacked. Values: "replace" (forge attacker
	// addresses matching the genuine answer length), "inflate" (the
	// response-inflation attack), "empty" (the truncation-DoS answer).
	// Chaos mode is a resilience-testing tool; never enable it on a
	// production resolver path.
	//
	// Deprecated: use Chaos.Payload.
	ChaosPayload string
	// ChaosResolvers selects which resolvers (indices into Resolvers)
	// the chaos adversary compromises. Empty means resolver 0 only — a
	// minority under the recommended three-resolver setup, so the
	// paper's bound applies.
	//
	// Deprecated: use Chaos.Resolvers.
	ChaosResolvers []int
	// ChaosProb is the per-exchange probability that a targeted exchange
	// is forged (the off-path race model). Values outside (0, 1] mean
	// "always" (the fully compromised resolver model).
	//
	// Deprecated: use Chaos.Prob.
	ChaosProb float64
	// ChaosSeed drives chaos randomness for deterministic runs (0 uses
	// seed 1).
	//
	// Deprecated: use Chaos.Seed.
	ChaosSeed int64
	// UDPBatch is how many UDP datagrams the frontend moves per syscall
	// (Serve only; 0 uses the default of 16). On Linux this drives
	// recvmmsg/sendmmsg batching; 1 — or any other platform — selects
	// the portable one-datagram-per-syscall path with identical
	// semantics.
	//
	// Deprecated: use Serve.UDPBatch.
	UDPBatch int
	// MaxTCPConns bounds the frontend's concurrently served TCP
	// connections (Serve only; 0 uses the default of 256). DoT shares
	// the bound (each stream listener gets its own budget).
	//
	// Deprecated: use Serve.MaxTCPConns.
	MaxTCPConns int
	// DoHAddr, when non-empty, makes Serve additionally answer DNS over
	// HTTPS (RFC 8484, HTTP/2) on this address at /dns-query — the same
	// authenticated transport the engine queries its upstream resolvers
	// with, so the serving hop is no longer the one plaintext link in
	// the chain. Requires TLSCert/TLSKey or TLSSelfSigned.
	//
	// Deprecated: use Serve.DoHAddr.
	DoHAddr string
	// DoTAddr, when non-empty, makes Serve additionally answer DNS over
	// TLS (RFC 7858) on this address, sharing the TCP loop's connection
	// bound and idle-timeout semantics. Requires TLSCert/TLSKey or
	// TLSSelfSigned.
	//
	// Deprecated: use Serve.DoTAddr.
	DoTAddr string
	// TLSCert and TLSKey are PEM file paths carrying the encrypted
	// listeners' server certificate chain and private key.
	//
	// Deprecated: use Serve.TLSCert and Serve.TLSKey.
	TLSCert string
	// Deprecated: use Serve.TLSKey.
	TLSKey string
	// TLSSelfSigned generates an ephemeral self-signed server identity
	// (built on internal/testpki) instead of loading TLSCert/TLSKey —
	// the dev mode behind dohpoold -tls-self-signed. The generated CA
	// certificate is available from Client.ServingCAPEM so clients can
	// be handed the trust anchor. Never a deployment mode.
	//
	// Deprecated: use Serve.TLSSelfSigned.
	TLSSelfSigned bool
	// AdminAddr, when non-empty, starts the observability HTTP server on
	// that address (e.g. "127.0.0.1:8053", ":0" for ephemeral): /metrics
	// serves Prometheus exposition for the engine, cache, resolver health
	// and frontend; /healthz is breaker-aware readiness; /poolz dumps the
	// cached pools. Bind it to loopback or a management network — it is
	// an operator surface, not a DNS one.
	//
	// Deprecated: use Serve.AdminAddr.
	AdminAddr string
}

// Pool is the outcome of one Algorithm 1 run.
type Pool struct {
	// Addrs is the combined pool: N truncated answer lists concatenated.
	// Duplicates are preserved deliberately — consumers must treat each
	// entry as an individual server (paper Section IV).
	Addrs []netip.Addr
	// TruncateLength is K, every resolver's contribution size.
	TruncateLength int
	// Majority holds the majority-confirmed addresses when
	// Config.WithMajority is set.
	Majority []netip.Addr
	// PerResolver reports each resolver's untruncated answer and error.
	PerResolver []ResolverReport
}

// ResolverReport is one resolver's contribution to a pool.
type ResolverReport struct {
	Resolver Resolver
	Addrs    []netip.Addr
	RTT      time.Duration
	Err      error
}

// Client generates consensus-backed server pools. It is a long-lived
// consensus engine: lookups are cached until the upstream answer TTL
// expires, concurrent lookups for the same domain coalesce into a single
// Algorithm 1 run, and per-resolver health feeds straggler hedging and a
// circuit breaker. A Client is safe for concurrent use; call Close when
// done to drain background refreshes.
type Client struct {
	eng   *core.Engine
	cfg   Config
	reg   *metrics.Registry
	admin *admin.Server // nil unless Config.AdminAddr was set

	serveTLS  *tls.Config // server identity for DoT/DoH listeners
	servingCA []byte      // CA PEM of the self-signed dev identity

	// fe is the most recently served frontend, for the admin server's
	// listener introspection.
	fe atomic.Pointer[core.Frontend]
}

// CacheStats reports consensus-cache effectiveness. Stale is the subset
// of Hits served past their TTL inside the stale-while-revalidate
// window.
type CacheStats struct {
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	Expirations uint64
	Stale       uint64
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// ResolverHealth is a point-in-time snapshot of one resolver's health.
type ResolverHealth struct {
	Resolver Resolver
	// EWMARTT is the moving average of successful exchange RTTs.
	EWMARTT time.Duration
	// Successes and Failures count completed exchanges.
	Successes uint64
	Failures  uint64
	// Hedges counts backup attempts fired at straggling resolvers.
	Hedges uint64
	// ConsecutiveFailures is the current failure streak.
	ConsecutiveFailures int
	// CircuitOpen reports whether the breaker currently rejects attempts.
	CircuitOpen bool
}

// Exported error conditions, matchable with errors.Is.
var (
	// ErrNoResolvers reports an empty resolver list.
	ErrNoResolvers = core.ErrNoResolvers
	// ErrQuorum reports that fewer resolvers answered than required.
	ErrQuorum = core.ErrQuorum
	// ErrEmptyAnswer reports that the shortest answer was empty, so
	// truncation produced an empty pool (a denial of service, not a
	// poisoning — the trade-off of the paper's footnote 2).
	ErrEmptyAnswer = core.ErrEmptyAnswer
	// ErrAdminListen reports that Config.AdminAddr could not be bound;
	// callers that treat the admin server as best-effort can match it
	// and retry with AdminAddr cleared.
	ErrAdminListen = errors.New("admin listen failed")
)

// New validates cfg and builds a Client. Deprecated flat fields and
// their grouped counterparts are folded together first (grouped wins
// when both are set), so either spelling configures the same client.
func New(cfg Config) (*Client, error) {
	cfg = cfg.resolved()
	opts := []doh.ClientOption{}
	if cfg.TLSConfig != nil {
		opts = append(opts, doh.WithTLSConfig(cfg.TLSConfig))
	}
	if cfg.UseGET {
		opts = append(opts, doh.WithMethod(doh.MethodGET))
	}
	if cfg.UsePadding {
		opts = append(opts, doh.WithPadding())
	}
	if cfg.QueryTimeout > 0 {
		opts = append(opts, doh.WithTimeout(cfg.QueryTimeout))
	}
	if cfg.HTTPClient != nil {
		opts = append(opts, doh.WithHTTPClient(cfg.HTTPClient))
	}
	endpoints := make([]core.Endpoint, len(cfg.Resolvers))
	for i, r := range cfg.Resolvers {
		if r.URL == "" {
			return nil, fmt.Errorf("resolver %d (%q) has no URL", i, r.Name)
		}
		endpoints[i] = core.Endpoint{Name: r.Name, URL: r.URL}
	}
	minHits := cfg.Refresh.MinHits
	if minHits == 0 {
		minHits = 1
	}
	reg := metrics.New()
	registerBuildInfo(reg)
	var querier core.Querier = doh.NewClient(opts...)
	if cfg.Chaos.Payload != "" {
		chaos, err := buildChaos(cfg, endpoints, querier)
		if err != nil {
			return nil, err
		}
		reg.CounterFunc(MetricChaosForged,
			"Responses forged by the chaos adversary interposed at the engine's transport seam.",
			func() float64 { return float64(chaos.Forged()) })
		querier = chaos
	}
	if cfg.Chaos.Net.Active() {
		// Network faults stack outside the payload adversary: a drop or
		// delay hits the wire before any forged answer could arrive.
		net, err := buildNetChaos(cfg, endpoints)
		if err != nil {
			return nil, err
		}
		registerNetChaos(reg, net)
		querier = net.WrapQuerier(querier)
	}
	eng, err := core.NewEngine(core.Config{
		Resolvers:    endpoints,
		Querier:      querier,
		MinResolvers: cfg.MinResolvers,
		Sequential:   cfg.Sequential,
		WithMajority: cfg.WithMajority,
		DualStack:    core.DualStackPolicy(cfg.DualStack),
		QueryTimeout: cfg.QueryTimeout,
	}, core.EngineConfig{
		CacheSize:        cfg.Cache.Size,
		CacheShards:      cfg.Cache.Shards,
		MaxStale:         cfg.Cache.StaleWhileRevalidate,
		RefreshAhead:     cfg.Refresh.Ahead,
		RefreshMinHits:   minHits,
		HedgeDelay:       cfg.Health.HedgeDelay,
		DisableHedging:   cfg.Health.DisableHedging,
		BreakerThreshold: cfg.Health.BreakerThreshold,
		BreakerCooldown:  cfg.Health.BreakerCooldown,
		TrustWindow:      cfg.Trust.Window,
		TrustMinScore:    cfg.Trust.MinScore,
		Metrics:          reg,
	})
	if err != nil {
		return nil, err
	}
	c := &Client{eng: eng, cfg: cfg, reg: reg}
	if err := c.buildServerTLS(); err != nil {
		_ = eng.Close()
		return nil, err
	}
	if cfg.Serve.AdminAddr != "" {
		c.admin, err = admin.Start(cfg.Serve.AdminAddr, admin.Config{
			Registry:  reg,
			Engine:    eng,
			Listeners: c.listeners,
		})
		if err != nil {
			_ = eng.Close()
			return nil, fmt.Errorf("%w: %v", ErrAdminListen, err)
		}
	}
	return c, nil
}

// buildServerTLS resolves the encrypted listeners' server identity from
// Config: explicit PEM files, or the self-signed dev mode.
func (c *Client) buildServerTLS() error {
	if c.cfg.Serve.DoHAddr == "" && c.cfg.Serve.DoTAddr == "" {
		return nil
	}
	switch {
	case c.cfg.Serve.TLSSelfSigned:
		if c.cfg.Serve.TLSCert != "" || c.cfg.Serve.TLSKey != "" {
			// Silently preferring one identity source over the other
			// would serve a certificate the operator did not choose.
			return errors.New("TLSSelfSigned conflicts with TLSCert/TLSKey — configure one identity source")
		}
		tlsCfg, caPEM, err := testpki.SelfSignedServer()
		if err != nil {
			return fmt.Errorf("self-signed serving identity: %w", err)
		}
		c.serveTLS, c.servingCA = tlsCfg, caPEM
	case c.cfg.Serve.TLSCert != "" && c.cfg.Serve.TLSKey != "":
		cert, err := tls.LoadX509KeyPair(c.cfg.Serve.TLSCert, c.cfg.Serve.TLSKey)
		if err != nil {
			return fmt.Errorf("load TLSCert/TLSKey: %w", err)
		}
		c.serveTLS = &tls.Config{
			Certificates: []tls.Certificate{cert},
			MinVersion:   tls.VersionTLS12,
		}
	default:
		return errors.New("DoHAddr/DoTAddr require TLSCert+TLSKey or TLSSelfSigned")
	}
	return nil
}

// listeners snapshots the served frontend's listener state (nil before
// Serve or after the frontend closed).
func (c *Client) listeners() []core.ListenerInfo {
	fe := c.fe.Load()
	if fe == nil {
		return nil
	}
	return fe.Listeners()
}

// ServingCAPEM returns the PEM-encoded CA certificate behind the
// Config.TLSSelfSigned dev identity (nil otherwise) — hand it to
// clients (e.g. dohquery -ca) so they can authenticate the encrypted
// listeners.
func (c *Client) ServingCAPEM() []byte {
	return append([]byte(nil), c.servingCA...)
}

// ResolverCount returns N, the number of configured resolvers.
func (c *Client) ResolverCount() int { return c.eng.ResolverCount() }

// Close stops the admin server (when one was started) and drains the
// engine's background refreshes. The Client must not be used afterwards.
func (c *Client) Close() error {
	if c.admin != nil {
		_ = c.admin.Close()
	}
	return c.eng.Close()
}

// AdminAddr returns the observability server's host:port, or "" when
// Config.AdminAddr was empty. Useful with an ephemeral ":0" address.
func (c *Client) AdminAddr() string {
	if c.admin == nil {
		return ""
	}
	return c.admin.Addr()
}

// WritePrometheus renders the client's metrics in Prometheus text format
// — the same body the admin server's /metrics endpoint serves — so
// embedding applications can expose them on their own HTTP server.
func (c *Client) WritePrometheus(w io.Writer) error {
	return c.reg.WritePrometheus(w)
}

// CacheStats reports consensus-cache effectiveness counters.
func (c *Client) CacheStats() CacheStats {
	st := c.eng.CacheStats()
	return CacheStats{Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions, Expirations: st.Expirations, Stale: st.Stale}
}

// ResolverHealth reports a per-resolver health snapshot (EWMA RTT,
// success/failure counters, hedges, circuit-breaker state).
func (c *Client) ResolverHealth() []ResolverHealth {
	snap := c.eng.Health()
	out := make([]ResolverHealth, len(snap))
	for i, h := range snap {
		out[i] = ResolverHealth{
			Resolver:            Resolver{Name: h.Name, URL: h.URL},
			EWMARTT:             h.EWMARTT,
			Successes:           h.Successes,
			Failures:            h.Failures,
			Hedges:              h.Hedges,
			ConsecutiveFailures: h.ConsecutiveFailures,
			CircuitOpen:         h.CircuitOpen,
		}
	}
	return out
}

// ResolverTrust is a point-in-time snapshot of one resolver's trust: how
// often its answers survive consensus over the recent generation window.
type ResolverTrust struct {
	Resolver Resolver
	// Score is the windowed trust score in [0, 1] (1 before any
	// observation).
	Score float64
	// Samples is how many generations currently inform the score.
	Samples int
	// Distrusted reports whether enforcement currently quarantines this
	// resolver's contributions.
	Distrusted bool
}

// ResolverTrust reports a per-resolver trust snapshot (nil when
// Config.TrustWindow is negative).
func (c *Client) ResolverTrust() []ResolverTrust {
	snap := c.eng.Trust()
	if snap == nil {
		return nil
	}
	out := make([]ResolverTrust, len(snap))
	for i, t := range snap {
		out[i] = ResolverTrust{
			Resolver:   Resolver{Name: t.Name, URL: t.URL},
			Score:      t.Score,
			Samples:    t.Samples,
			Distrusted: t.Distrusted,
		}
	}
	return out
}

// MetricChaosForged counts responses forged by the chaos adversary; it is
// only registered while chaos mode is active.
const MetricChaosForged = "dohpool_chaos_forged_total"

// Network-chaos counters; only registered while Chaos.Net is active.
const (
	// MetricNetChaosDropped counts exchanges dropped by packet loss or
	// partition windows.
	MetricNetChaosDropped = "dohpool_netchaos_dropped_total"
	// MetricNetChaosDelayed counts exchanges that had delay injected.
	MetricNetChaosDelayed = "dohpool_netchaos_delayed_total"
	// MetricNetChaosRefused counts exchanges refused by resolver churn.
	MetricNetChaosRefused = "dohpool_netchaos_refused_total"
)

// chaosTargetURLs maps resolver indices to endpoint URLs, validating
// bounds.
func chaosTargetURLs(idx []int, endpoints []core.Endpoint) ([]string, error) {
	targets := make([]string, 0, len(idx))
	for _, i := range idx {
		if i < 0 || i >= len(endpoints) {
			return nil, fmt.Errorf("chaos resolver index %d out of range (have %d resolvers)", i, len(endpoints))
		}
		targets = append(targets, endpoints[i].URL)
	}
	return targets, nil
}

// buildChaos assembles the chaos-mode adversary: an attack.Forger
// targeting every domain, interposed on the configured resolver subset at
// the engine's transport seam.
func buildChaos(cfg Config, endpoints []core.Endpoint, inner core.Querier) (*attack.ChaosQuerier, error) {
	payload, err := attack.ParsePayload(cfg.Chaos.Payload)
	if err != nil {
		return nil, fmt.Errorf("chaos payload: %w", err)
	}
	idx := cfg.Chaos.Resolvers
	if len(idx) == 0 {
		idx = []int{0}
	}
	targets, err := chaosTargetURLs(idx, endpoints)
	if err != nil {
		return nil, err
	}
	if 2*len(targets) >= len(endpoints) {
		// Not an error — experiments beyond the paper's assumption are a
		// legitimate use — but worth a scream: truncation only bounds a
		// *minority* attacker.
		fmt.Fprintf(os.Stderr, "dohpool: chaos mode compromises %d of %d resolvers — the paper's minority bound no longer applies\n",
			len(targets), len(endpoints))
	}
	seed := cfg.Chaos.Seed
	if seed == 0 {
		seed = 1
	}
	// Target "." so every pool domain served by this client is attacked.
	forger := attack.NewForger(".", payload)
	return attack.NewChaosQuerier(inner, forger, targets, cfg.Chaos.Prob, seed), nil
}

// buildNetChaos assembles the network-fault injector for the engine's
// resolver exchanges per Config.Chaos.Net. Unlike the payload adversary
// an empty resolver list targets every resolver — network weather is
// not a per-resolver compromise.
func buildNetChaos(cfg Config, endpoints []core.Endpoint) (*attack.NetChaos, error) {
	nc := cfg.Chaos.Net
	targets, err := chaosTargetURLs(nc.Resolvers, endpoints)
	if err != nil {
		return nil, err
	}
	return attack.NewNetChaos(attack.NetChaosOptions{
		DropProb:       nc.DropProb,
		Delay:          nc.Delay,
		Jitter:         nc.Jitter,
		PartitionEvery: nc.PartitionEvery,
		PartitionFor:   nc.PartitionFor,
		ChurnEvery:     nc.ChurnEvery,
		ChurnDowntime:  nc.ChurnDowntime,
		Targets:        targets,
		Seed:           cfg.Chaos.Seed,
	}), nil
}

// registerNetChaos surfaces the injector's counters on the client's
// metrics registry.
func registerNetChaos(reg *metrics.Registry, net *attack.NetChaos) {
	reg.CounterFunc(MetricNetChaosDropped,
		"Resolver exchanges dropped by injected packet loss or partition windows.",
		func() float64 { return float64(net.Dropped()) })
	reg.CounterFunc(MetricNetChaosDelayed,
		"Resolver exchanges with injected network delay.",
		func() float64 { return float64(net.Delayed()) })
	reg.CounterFunc(MetricNetChaosRefused,
		"Resolver exchanges refused by injected resolver churn.",
		func() float64 { return float64(net.Refused()) })
}

// LookupPool runs Algorithm 1 for the domain's IPv4 addresses, served
// from the consensus cache when a fresh pool is available.
func (c *Client) LookupPool(ctx context.Context, domain string) (*Pool, error) {
	p, err := c.eng.Lookup(ctx, domain, dnswire.TypeA)
	if err != nil {
		return nil, err
	}
	return fromCorePool(p), nil
}

// LookupPoolIPv6 runs Algorithm 1 for the domain's IPv6 addresses.
func (c *Client) LookupPoolIPv6(ctx context.Context, domain string) (*Pool, error) {
	p, err := c.eng.Lookup(ctx, domain, dnswire.TypeAAAA)
	if err != nil {
		return nil, err
	}
	return fromCorePool(p), nil
}

// LookupPoolDualStack runs Algorithm 1 for both families per the
// configured DualStackPolicy.
func (c *Client) LookupPoolDualStack(ctx context.Context, domain string) (*Pool, error) {
	p, err := c.eng.LookupDualStack(ctx, domain)
	if err != nil {
		return nil, err
	}
	return fromCorePool(p), nil
}

// Serve starts the standard-compatible DNS front-end on addr
// (e.g. "127.0.0.1:5353"), UDP and TCP (RFC 7766) on the same port.
// With Config.DoHAddr / DoTAddr set, the same backend additionally
// serves RFC 8484 DNS-over-HTTPS and RFC 7858 DNS-over-TLS. Every
// A/AAAA query on every transport is answered from the same consensus
// engine — cached within TTL, coalesced on concurrent misses, so a
// domain warmed over one transport is a cache hit on all of them. Stop
// it with its Close method.
func (c *Client) Serve(addr string) (*Frontend, error) {
	f, err := core.NewFrontendWithConfig(addr, c.eng, core.FrontendConfig{
		UDPBatch:    c.cfg.Serve.UDPBatch,
		UDPSockets:  c.cfg.Serve.UDPSockets,
		MaxTCPConns: c.cfg.Serve.MaxTCPConns,
		DoHAddr:     c.cfg.Serve.DoHAddr,
		DoTAddr:     c.cfg.Serve.DoTAddr,
		TLSConfig:   c.serveTLS,
		Metrics:     c.reg,
	})
	if err != nil {
		return nil, fmt.Errorf("start dns frontend: %w", err)
	}
	c.fe.Store(f)
	return &Frontend{inner: f, client: c}, nil
}

// Frontend is a running DNS front-end (plain UDP/TCP, plus DoT/DoH when
// configured).
type Frontend struct {
	inner  *core.Frontend
	client *Client
}

// Addr returns the frontend's plain-DNS listening host:port.
func (f *Frontend) Addr() string { return f.inner.Addr() }

// DoHAddr returns the DoH listener's host:port ("" when disabled).
func (f *Frontend) DoHAddr() string { return f.inner.DoHAddr() }

// DoTAddr returns the DoT listener's host:port ("" when disabled).
func (f *Frontend) DoTAddr() string { return f.inner.DoTAddr() }

// Listeners reports every transport the frontend currently serves, as
// also exposed on the admin server's /healthz and /poolz.
func (f *Frontend) Listeners() []core.ListenerInfo { return f.inner.Listeners() }

// Served returns the number of queries answered.
func (f *Frontend) Served() uint64 { return f.inner.Served() }

// Failures returns the number of queries that ended in an error RCode.
func (f *Frontend) Failures() uint64 { return f.inner.Failures() }

// Dropped returns the number of UDP datagrams shed under overload.
func (f *Frontend) Dropped() uint64 { return f.inner.Dropped() }

// Close stops the frontend.
func (f *Frontend) Close() error {
	if f.client != nil {
		// Stop advertising this frontend's listeners on the admin
		// endpoints (a newer Serve call may already have replaced it).
		f.client.fe.CompareAndSwap(f.inner, nil)
	}
	if err := f.inner.Close(); err != nil && !errors.Is(err, core.ErrFrontendClosed) {
		return err
	}
	return nil
}

// MetricBuildInfo is the build-identity gauge every Client registers:
// constant 1 labeled with the module version and VCS revision, the
// Prometheus idiom for joining metrics to the binary that produced them.
const MetricBuildInfo = "dohpool_build_info"

// BuildInfo reports the module version and VCS revision baked into the
// running binary by the Go toolchain ("unknown" where the build carried
// none, e.g. `go run` from a dirty tree).
func BuildInfo() (version, revision string) {
	version, revision = "unknown", "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return version, revision
	}
	if bi.Main.Version != "" {
		version = bi.Main.Version
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" && s.Value != "" {
			revision = s.Value
		}
	}
	return version, revision
}

// registerBuildInfo surfaces BuildInfo as the conventional constant-1
// info gauge.
func registerBuildInfo(reg *metrics.Registry) {
	version, revision := BuildInfo()
	reg.GaugeVec(MetricBuildInfo,
		"Build identity of the running dohpool module: constant 1, labeled with version and VCS revision.",
		"version", "revision").With(version, revision).Set(1)
}

// RecommendResolverCount answers the deployment-sizing question the
// paper's exponential-security argument invites: the smallest number of
// independent DoH resolvers N such that an attacker who compromises each
// resolver independently with probability attackProb controls a pool
// fraction of at least poolFraction with probability at most targetProb.
//
// Example: RecommendResolverCount(0.1, 0.5, 0.001) = 9 — nine resolvers
// push a 10%-per-resolver attacker below one-in-a-thousand odds of pool
// majority. It returns an error when the target is unreachable, which
// happens whenever attackProb ≥ poolFraction (the law of large numbers
// then works for the attacker, not against).
func RecommendResolverCount(attackProb, poolFraction, targetProb float64) (int, error) {
	return analysis.MinResolversForTarget(attackProb, poolFraction, targetProb)
}

func fromCorePool(p *core.Pool) *Pool {
	out := &Pool{
		Addrs:          append([]netip.Addr(nil), p.Addrs...),
		TruncateLength: p.TruncateLength,
		Majority:       append([]netip.Addr(nil), p.Majority...),
	}
	out.PerResolver = make([]ResolverReport, len(p.Results))
	for i, r := range p.Results {
		out.PerResolver[i] = ResolverReport{
			Resolver: Resolver{Name: r.Endpoint.Name, URL: r.Endpoint.URL},
			Addrs:    append([]netip.Addr(nil), r.Addrs...),
			RTT:      r.RTT,
			Err:      r.Err,
		}
	}
	return out
}
