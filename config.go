package dohpool

import "time"

// This file is the grouped configuration surface. Config historically
// grew ~35 flat fields spanning six concerns; the grouped sub-structs
// below (CacheConfig, RefreshConfig, HealthConfig, TrustConfig,
// ChaosConfig, ServeConfig) organize the same knobs by layer. Every
// flat field remains as a deprecated alias so existing callers compile
// and behave identically.
//
// Precedence, uniformly: the grouped field wins when it is set (any
// non-zero value — including negative sentinels like CacheConfig.Size
// = -1, which mean "disable", not "unset"); otherwise the flat alias
// applies. Boolean knobs cannot express "explicitly false versus
// unset", so they merge with OR: either spelling turning a behaviour
// on turns it on. The one three-way chain is stale serving:
// Cache.StaleWhileRevalidate beats the flat StaleWhileRevalidate,
// which beats the older MaxStale.

// CacheConfig groups the consensus-cache knobs (the grouped spelling of
// CacheSize, CacheShards and StaleWhileRevalidate/MaxStale).
type CacheConfig struct {
	// Size bounds the TTL-aware consensus cache (entries). 0 uses the
	// default capacity; negative disables caching.
	Size int
	// Shards splits the cache into this many lock domains (rounded up
	// to a power of two). 0 sizes automatically from GOMAXPROCS.
	Shards int
	// StaleWhileRevalidate serves an expired pool for up to this long
	// past its TTL while a background refresh runs.
	StaleWhileRevalidate time.Duration
}

// RefreshConfig groups the always-warm refresh-ahead pipeline knobs
// (the grouped spelling of RefreshAhead and RefreshMinHits).
type RefreshConfig struct {
	// Ahead, when in (0, 1], regenerates cached pools in the background
	// once they have lived this fraction of their TTL.
	Ahead float64
	// MinHits is the popularity threshold for staying on the pipeline
	// (0 uses the default of 1).
	MinHits uint64
}

// HealthConfig groups resolver-health knobs: straggler hedging and the
// per-resolver circuit breaker (the grouped spelling of HedgeDelay,
// DisableHedging, BreakerThreshold and BreakerCooldown).
type HealthConfig struct {
	// HedgeDelay is the straggler-hedge trigger. Positive = fixed;
	// 0 = adaptive (2× EWMA RTT, clamped).
	HedgeDelay time.Duration
	// DisableHedging turns straggler hedging off entirely.
	DisableHedging bool
	// BreakerThreshold is the consecutive-failure count that opens a
	// resolver's breaker (0 = default of 3; negative disables).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects attempts
	// before admitting a probe (default 10s).
	BreakerCooldown time.Duration
}

// TrustConfig groups resolver trust-scoring knobs (the grouped spelling
// of TrustWindow and TrustMinScore).
type TrustConfig struct {
	// Window is how many recent generations feed each resolver's trust
	// score (0 = default of 16; negative disables tracking).
	Window int
	// MinScore, when in (0, 1], enforces trust by quarantining
	// resolvers scoring below it (0 keeps scoring observational).
	MinScore float64
}

// NetChaosConfig configures network-level fault injection on the
// engine's resolver exchanges: packet loss, added delay, partition
// windows and resolver churn. Unlike the payload adversary it has no
// flat aliases — it is new API, reachable only as ChaosConfig.Net. The
// zero value injects nothing. Like payload chaos, it is a
// resilience-testing tool, never a production setting.
type NetChaosConfig struct {
	// DropProb is the probability in [0, 1] that an exchange is
	// dropped (blocks until the exchange's context expires, like a
	// lost datagram).
	DropProb float64
	// Delay is added to every non-dropped exchange; Jitter adds a
	// uniform random extra in [0, Jitter).
	Delay  time.Duration
	Jitter time.Duration
	// PartitionEvery/PartitionFor cycle a hard partition: for the
	// first PartitionFor of every PartitionEvery window every targeted
	// exchange is dropped. Both must be set to engage.
	PartitionEvery time.Duration
	PartitionFor   time.Duration
	// ChurnEvery/ChurnDowntime cycle resolver restarts: each
	// ChurnEvery window one targeted resolver (rotating) refuses
	// exchanges for the first ChurnDowntime.
	ChurnEvery    time.Duration
	ChurnDowntime time.Duration
	// Resolvers selects which resolvers (indices into
	// Config.Resolvers) the network faults hit. Empty means all of
	// them — network weather, unlike the payload adversary, is not a
	// per-resolver compromise.
	Resolvers []int
}

// Active reports whether the config injects any network fault.
func (n NetChaosConfig) Active() bool {
	return n.DropProb > 0 ||
		n.Delay > 0 || n.Jitter > 0 ||
		(n.PartitionEvery > 0 && n.PartitionFor > 0) ||
		(n.ChurnEvery > 0 && n.ChurnDowntime > 0)
}

// ChaosConfig groups attack-injection knobs (the grouped spelling of
// ChaosPayload, ChaosResolvers, ChaosProb and ChaosSeed), plus the
// network-fault layer under Net.
type ChaosConfig struct {
	// Payload, when non-empty, interposes the payload adversary:
	// "replace", "inflate" or "empty".
	Payload string
	// Resolvers selects the compromised resolver indices (empty =
	// resolver 0 only).
	Resolvers []int
	// Prob is the per-exchange forge probability (outside (0, 1] =
	// always).
	Prob float64
	// Seed drives chaos randomness (0 uses seed 1). Shared by the
	// payload and network layers.
	Seed int64
	// Net injects network-level faults (loss, delay, partition,
	// churn) on resolver exchanges — independently of Payload, so a
	// run can have bad weather, bad answers, or both.
	Net NetChaosConfig
}

// ServeConfig groups the serving-plane knobs (the grouped spelling of
// UDPBatch, MaxTCPConns, DoHAddr, DoTAddr, TLSCert, TLSKey,
// TLSSelfSigned and AdminAddr).
type ServeConfig struct {
	// UDPBatch is how many UDP datagrams move per syscall (0 = default
	// of 16).
	UDPBatch int
	// UDPSockets is how many SO_REUSEPORT UDP sockets share the serving
	// port, each with its own reader loop and batch state (0 sizes from
	// NumCPU, 1 = classic single-socket serving; clamped to 1 on
	// platforms without SO_REUSEPORT). Grouped-only knob — it has no
	// flat alias.
	UDPSockets int
	// MaxTCPConns bounds concurrently served TCP connections (0 =
	// default of 256; DoT shares the bound).
	MaxTCPConns int
	// DoHAddr serves RFC 8484 DNS-over-HTTPS on this address.
	DoHAddr string
	// DoTAddr serves RFC 7858 DNS-over-TLS on this address.
	DoTAddr string
	// TLSCert/TLSKey are PEM paths for the encrypted listeners'
	// identity.
	TLSCert string
	TLSKey  string
	// TLSSelfSigned generates an ephemeral dev identity instead.
	TLSSelfSigned bool
	// AdminAddr starts the observability HTTP server on this address.
	AdminAddr string
}

// pick helpers: grouped wins when set (non-zero — negative sentinels
// count as set); otherwise the flat alias applies.

func pickInt(grouped, flat int) int {
	if grouped != 0 {
		return grouped
	}
	return flat
}

func pickUint64(grouped, flat uint64) uint64 {
	if grouped != 0 {
		return grouped
	}
	return flat
}

func pickFloat(grouped, flat float64) float64 {
	if grouped != 0 {
		return grouped
	}
	return flat
}

func pickInt64(grouped, flat int64) int64 {
	if grouped != 0 {
		return grouped
	}
	return flat
}

func pickDuration(grouped, flat time.Duration) time.Duration {
	if grouped != 0 {
		return grouped
	}
	return flat
}

func pickString(grouped, flat string) string {
	if grouped != "" {
		return grouped
	}
	return flat
}

func pickInts(grouped, flat []int) []int {
	if len(grouped) > 0 {
		return grouped
	}
	return flat
}

// resolved folds every deprecated flat alias and its grouped field into
// one effective value, written to *both* spellings of the returned copy
// — so the rest of the package (and Client.Serve) reads grouped fields
// only, while a caller inspecting the flat fields of Client state sees
// the same truth.
func (c Config) resolved() Config {
	out := c

	// Cache. The stale chain is three-deep: grouped beats the flat
	// StaleWhileRevalidate, which beats the legacy MaxStale.
	out.Cache.Size = pickInt(c.Cache.Size, c.CacheSize)
	out.Cache.Shards = pickInt(c.Cache.Shards, c.CacheShards)
	out.Cache.StaleWhileRevalidate = pickDuration(c.Cache.StaleWhileRevalidate,
		pickDuration(c.StaleWhileRevalidate, c.MaxStale))
	out.CacheSize = out.Cache.Size
	out.CacheShards = out.Cache.Shards
	out.StaleWhileRevalidate = out.Cache.StaleWhileRevalidate
	out.MaxStale = out.Cache.StaleWhileRevalidate

	// Refresh.
	out.Refresh.Ahead = pickFloat(c.Refresh.Ahead, c.RefreshAhead)
	out.Refresh.MinHits = pickUint64(c.Refresh.MinHits, c.RefreshMinHits)
	out.RefreshAhead = out.Refresh.Ahead
	out.RefreshMinHits = out.Refresh.MinHits

	// Health. DisableHedging is a bool: OR semantics.
	out.Health.HedgeDelay = pickDuration(c.Health.HedgeDelay, c.HedgeDelay)
	out.Health.DisableHedging = c.Health.DisableHedging || c.DisableHedging
	out.Health.BreakerThreshold = pickInt(c.Health.BreakerThreshold, c.BreakerThreshold)
	out.Health.BreakerCooldown = pickDuration(c.Health.BreakerCooldown, c.BreakerCooldown)
	out.HedgeDelay = out.Health.HedgeDelay
	out.DisableHedging = out.Health.DisableHedging
	out.BreakerThreshold = out.Health.BreakerThreshold
	out.BreakerCooldown = out.Health.BreakerCooldown

	// Trust.
	out.Trust.Window = pickInt(c.Trust.Window, c.TrustWindow)
	out.Trust.MinScore = pickFloat(c.Trust.MinScore, c.TrustMinScore)
	out.TrustWindow = out.Trust.Window
	out.TrustMinScore = out.Trust.MinScore

	// Chaos. Net has no flat aliases; it passes through untouched.
	out.Chaos.Payload = pickString(c.Chaos.Payload, c.ChaosPayload)
	out.Chaos.Resolvers = pickInts(c.Chaos.Resolvers, c.ChaosResolvers)
	out.Chaos.Prob = pickFloat(c.Chaos.Prob, c.ChaosProb)
	out.Chaos.Seed = pickInt64(c.Chaos.Seed, c.ChaosSeed)
	out.ChaosPayload = out.Chaos.Payload
	out.ChaosResolvers = out.Chaos.Resolvers
	out.ChaosProb = out.Chaos.Prob
	out.ChaosSeed = out.Chaos.Seed

	// Serve. TLSSelfSigned is a bool: OR semantics.
	out.Serve.UDPBatch = pickInt(c.Serve.UDPBatch, c.UDPBatch)
	out.Serve.MaxTCPConns = pickInt(c.Serve.MaxTCPConns, c.MaxTCPConns)
	out.Serve.DoHAddr = pickString(c.Serve.DoHAddr, c.DoHAddr)
	out.Serve.DoTAddr = pickString(c.Serve.DoTAddr, c.DoTAddr)
	out.Serve.TLSCert = pickString(c.Serve.TLSCert, c.TLSCert)
	out.Serve.TLSKey = pickString(c.Serve.TLSKey, c.TLSKey)
	out.Serve.TLSSelfSigned = c.Serve.TLSSelfSigned || c.TLSSelfSigned
	out.Serve.AdminAddr = pickString(c.Serve.AdminAddr, c.AdminAddr)
	out.UDPBatch = out.Serve.UDPBatch
	out.MaxTCPConns = out.Serve.MaxTCPConns
	out.DoHAddr = out.Serve.DoHAddr
	out.DoTAddr = out.Serve.DoTAddr
	out.TLSCert = out.Serve.TLSCert
	out.TLSKey = out.Serve.TLSKey
	out.TLSSelfSigned = out.Serve.TLSSelfSigned
	out.AdminAddr = out.Serve.AdminAddr

	return out
}
