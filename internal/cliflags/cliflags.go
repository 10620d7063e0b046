// Package cliflags is the single mapping between dohpool's grouped
// configuration surface (dohpool.CacheConfig, HealthConfig, …) and its
// CLI flag spellings. Every binary that configures a Client —
// dohpoold, loadgen's self-hosted mode, testbed's chaos aliases —
// registers groups from here instead of declaring its own flag set, so
// a knob added to the library either gets a flag in exactly one place
// or visibly has none (the drift test in this package enumerates the
// config fields and fails on unmapped ones).
//
// Each Register* function declares one group's flags on a
// flag.FlagSet and returns a holder whose Apply method writes the
// parsed values into the *grouped* fields of a dohpool.Config — never
// the deprecated flat aliases.
package cliflags

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"dohpool"
)

// ParseIndexList parses a comma-separated index list ("0,2") as used
// by the chaos resolver-selection flags. Empty input yields nil.
func ParseIndexList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var idx []int
	for _, part := range strings.Split(s, ",") {
		i, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad index %q: %v", part, err)
		}
		idx = append(idx, i)
	}
	return idx, nil
}

// Consensus holds the consensus-level flags. These map to top-level
// Config fields (not a grouped sub-struct): the quorum semantics are
// the paper's Algorithm 1 itself, not a tunable layer around it.
type Consensus struct {
	Quorum   *int
	Majority *bool
	Timeout  *time.Duration
}

// RegisterConsensus declares -quorum, -majority and -timeout.
func RegisterConsensus(fs *flag.FlagSet) *Consensus {
	return &Consensus{
		Quorum:   fs.Int("quorum", 0, "resolvers that must answer (0 = all)"),
		Majority: fs.Bool("majority", false, "answer only majority-confirmed addresses"),
		Timeout:  fs.Duration("timeout", 4*time.Second, "per-resolver query timeout"),
	}
}

// Apply writes the parsed values into cfg.
func (c *Consensus) Apply(cfg *dohpool.Config) {
	cfg.MinResolvers = *c.Quorum
	cfg.WithMajority = *c.Majority
	cfg.QueryTimeout = *c.Timeout
}

// Cache holds the dohpool.CacheConfig flags.
type Cache struct {
	Size     *int
	Shards   *int
	SWR      *time.Duration
	MaxStale *time.Duration
}

// RegisterCache declares -cache-size, -cache-shards,
// -stale-while-revalidate and its deprecated alias -max-stale.
func RegisterCache(fs *flag.FlagSet) *Cache {
	return &Cache{
		Size:     fs.Int("cache-size", 0, "consensus cache capacity in entries (0 = default, -1 = disable)"),
		Shards:   fs.Int("cache-shards", 0, "consensus cache lock shards, rounded up to a power of two (0 = from GOMAXPROCS)"),
		SWR:      fs.Duration("stale-while-revalidate", 0, "serve expired pools up to this long past TTL while refreshing (wins over -max-stale)"),
		MaxStale: fs.Duration("max-stale", 0, "deprecated alias for -stale-while-revalidate"),
	}
}

// Apply writes the parsed values into cfg.Cache, resolving the
// -stale-while-revalidate / -max-stale alias pair here so the library
// receives one value through the grouped field.
func (c *Cache) Apply(cfg *dohpool.Config) {
	cfg.Cache.Size = *c.Size
	cfg.Cache.Shards = *c.Shards
	swr := *c.SWR
	if swr == 0 {
		swr = *c.MaxStale
	}
	cfg.Cache.StaleWhileRevalidate = swr
}

// Refresh holds the dohpool.RefreshConfig flags.
type Refresh struct {
	Ahead   *float64
	MinHits *uint64
}

// RegisterRefresh declares -refresh-ahead and -refresh-min-hits.
func RegisterRefresh(fs *flag.FlagSet) *Refresh {
	return &Refresh{
		Ahead:   fs.Float64("refresh-ahead", 0, "regenerate cached pools in the background at this fraction of TTL, e.g. 0.8 (0 = disabled)"),
		MinHits: fs.Uint64("refresh-min-hits", 1, "minimum hits since the last refresh before a pool stays on refresh-ahead (0 uses the default of 1)"),
	}
}

// Apply writes the parsed values into cfg.Refresh.
func (r *Refresh) Apply(cfg *dohpool.Config) {
	cfg.Refresh.Ahead = *r.Ahead
	cfg.Refresh.MinHits = *r.MinHits
}

// Health holds the dohpool.HealthConfig flags.
type Health struct {
	HedgeDelay       *time.Duration
	NoHedge          *bool
	BreakerThreshold *int
	BreakerCooldown  *time.Duration
}

// RegisterHealth declares -hedge-delay, -no-hedge, -breaker-threshold
// and -breaker-cooldown.
func RegisterHealth(fs *flag.FlagSet) *Health {
	return &Health{
		HedgeDelay:       fs.Duration("hedge-delay", 0, "fixed straggler hedge delay (0 = adaptive from EWMA RTT)"),
		NoHedge:          fs.Bool("no-hedge", false, "disable straggler hedging"),
		BreakerThreshold: fs.Int("breaker-threshold", 0, "consecutive failures opening a resolver's circuit breaker (0 = default, -1 = disable)"),
		BreakerCooldown:  fs.Duration("breaker-cooldown", 0, "how long an open breaker rejects attempts (0 = default)"),
	}
}

// Apply writes the parsed values into cfg.Health.
func (h *Health) Apply(cfg *dohpool.Config) {
	cfg.Health.HedgeDelay = *h.HedgeDelay
	cfg.Health.DisableHedging = *h.NoHedge
	cfg.Health.BreakerThreshold = *h.BreakerThreshold
	cfg.Health.BreakerCooldown = *h.BreakerCooldown
}

// Trust holds the dohpool.TrustConfig flags.
type Trust struct {
	Window   *int
	MinScore *float64
}

// RegisterTrust declares -trust-window and -trust-min-score.
func RegisterTrust(fs *flag.FlagSet) *Trust {
	return &Trust{
		Window:   fs.Int("trust-window", 0, "pool generations feeding each resolver's trust score (0 = default 16, negative = disable)"),
		MinScore: fs.Float64("trust-min-score", 0, "quarantine resolvers whose trust score falls below this (0 = observe only; 0.5 recommended)"),
	}
}

// Apply writes the parsed values into cfg.Trust.
func (t *Trust) Apply(cfg *dohpool.Config) {
	cfg.Trust.Window = *t.Window
	cfg.Trust.MinScore = *t.MinScore
}

// Chaos holds the dohpool.ChaosConfig flags: the payload adversary plus
// the network-fault layer (ChaosConfig.Net).
type Chaos struct {
	Payload   *string
	Resolvers *string
	Prob      *float64
	Seed      *int64

	NetDrop           *float64
	NetDelay          *time.Duration
	NetJitter         *time.Duration
	NetPartitionEvery *time.Duration
	NetPartitionFor   *time.Duration
	NetChurnEvery     *time.Duration
	NetChurnDowntime  *time.Duration
	NetResolvers      *string
}

// RegisterChaos declares the -chaos-* payload-adversary flags and the
// -net-chaos-* network-fault flags.
func RegisterChaos(fs *flag.FlagSet) *Chaos {
	return &Chaos{
		Payload:   fs.String("chaos-payload", "", "CHAOS MODE: forge targeted resolvers' answers with this payload: replace | inflate | empty (\"\" = off)"),
		Resolvers: fs.String("chaos-resolvers", "", "comma-separated resolver indices the chaos adversary compromises (default \"0\")"),
		Prob:      fs.Float64("chaos-prob", 1, "per-exchange probability a targeted exchange is forged"),
		Seed:      fs.Int64("chaos-seed", 0, "seed for all chaos randomness, payload and network (0 uses seed 1)"),

		NetDrop:           fs.Float64("net-chaos-drop", 0, "NET CHAOS: probability a resolver exchange is dropped (blocks until its deadline)"),
		NetDelay:          fs.Duration("net-chaos-delay", 0, "NET CHAOS: delay added to every resolver exchange"),
		NetJitter:         fs.Duration("net-chaos-jitter", 0, "NET CHAOS: uniform random extra delay in [0, jitter)"),
		NetPartitionEvery: fs.Duration("net-chaos-partition-every", 0, "NET CHAOS: partition cycle length (requires -net-chaos-partition-for)"),
		NetPartitionFor:   fs.Duration("net-chaos-partition-for", 0, "NET CHAOS: hard-partition duration at the start of each cycle"),
		NetChurnEvery:     fs.Duration("net-chaos-churn-every", 0, "NET CHAOS: resolver restart cycle length (requires -net-chaos-churn-downtime)"),
		NetChurnDowntime:  fs.Duration("net-chaos-churn-downtime", 0, "NET CHAOS: how long the rotating victim resolver refuses connections per cycle"),
		NetResolvers:      fs.String("net-chaos-resolvers", "", "comma-separated resolver indices the network faults hit (default: all)"),
	}
}

// Apply writes the parsed values into cfg.Chaos. Index-list parse
// errors are returned, not panicked, since they carry user input.
func (c *Chaos) Apply(cfg *dohpool.Config) error {
	idx, err := ParseIndexList(*c.Resolvers)
	if err != nil {
		return fmt.Errorf("-chaos-resolvers: %w", err)
	}
	netIdx, err := ParseIndexList(*c.NetResolvers)
	if err != nil {
		return fmt.Errorf("-net-chaos-resolvers: %w", err)
	}
	cfg.Chaos.Payload = *c.Payload
	cfg.Chaos.Resolvers = idx
	cfg.Chaos.Prob = *c.Prob
	cfg.Chaos.Seed = *c.Seed
	cfg.Chaos.Net = dohpool.NetChaosConfig{
		DropProb:       *c.NetDrop,
		Delay:          *c.NetDelay,
		Jitter:         *c.NetJitter,
		PartitionEvery: *c.NetPartitionEvery,
		PartitionFor:   *c.NetPartitionFor,
		ChurnEvery:     *c.NetChurnEvery,
		ChurnDowntime:  *c.NetChurnDowntime,
		Resolvers:      netIdx,
	}
	return nil
}

// ServeOptions adjusts per-binary defaults of the Serve group.
type ServeOptions struct {
	// AdminDefault is the -admin default ("" disables by default).
	AdminDefault string
}

// Serve holds the dohpool.ServeConfig flags.
type Serve struct {
	UDPBatch      *int
	UDPSockets    *int
	MaxTCPConns   *int
	DoHAddr       *string
	DoTAddr       *string
	TLSCert       *string
	TLSKey        *string
	TLSSelfSigned *bool
	AdminAddr     *string
}

// RegisterServe declares the serving-plane flags: -udp-batch,
// -udp-sockets, -max-tcp-conns, -doh-addr, -dot-addr, -tls-cert,
// -tls-key, -tls-self-signed and -admin.
func RegisterServe(fs *flag.FlagSet, opts ServeOptions) *Serve {
	return &Serve{
		UDPBatch:      fs.Int("udp-batch", 0, "UDP datagrams moved per syscall via recvmmsg/sendmmsg on Linux (0 = default 16, 1 = portable path)"),
		UDPSockets:    fs.Int("udp-sockets", 0, "SO_REUSEPORT UDP sockets sharing the serving port on Linux (0 = sized from NumCPU, 1 = single socket)"),
		MaxTCPConns:   fs.Int("max-tcp-conns", 0, "max concurrently served TCP connections (0 = default)"),
		DoHAddr:       fs.String("doh-addr", "", "additionally serve DNS over HTTPS (RFC 8484) on this address (\"\" disables)"),
		DoTAddr:       fs.String("dot-addr", "", "additionally serve DNS over TLS (RFC 7858) on this address (\"\" disables)"),
		TLSCert:       fs.String("tls-cert", "", "PEM certificate chain for the encrypted listeners"),
		TLSKey:        fs.String("tls-key", "", "PEM private key for the encrypted listeners"),
		TLSSelfSigned: fs.Bool("tls-self-signed", false, "DEV MODE: generate an ephemeral self-signed serving identity instead of -tls-cert/-tls-key"),
		AdminAddr:     fs.String("admin", opts.AdminDefault, "observability HTTP listen address for /metrics, /healthz, /poolz (\"\" disables)"),
	}
}

// Apply writes the parsed values into cfg.Serve.
func (s *Serve) Apply(cfg *dohpool.Config) {
	cfg.Serve.UDPBatch = *s.UDPBatch
	cfg.Serve.UDPSockets = *s.UDPSockets
	cfg.Serve.MaxTCPConns = *s.MaxTCPConns
	cfg.Serve.DoHAddr = *s.DoHAddr
	cfg.Serve.DoTAddr = *s.DoTAddr
	cfg.Serve.TLSCert = *s.TLSCert
	cfg.Serve.TLSKey = *s.TLSKey
	cfg.Serve.TLSSelfSigned = *s.TLSSelfSigned
	cfg.Serve.AdminAddr = *s.AdminAddr
}

// Set bundles every group for binaries that expose the full library
// surface (dohpoold, loadgen -selfhost).
type Set struct {
	Consensus *Consensus
	Cache     *Cache
	Refresh   *Refresh
	Health    *Health
	Trust     *Trust
	Chaos     *Chaos
	Serve     *Serve
}

// RegisterAll declares every group's flags on fs.
func RegisterAll(fs *flag.FlagSet, opts ServeOptions) *Set {
	return &Set{
		Consensus: RegisterConsensus(fs),
		Cache:     RegisterCache(fs),
		Refresh:   RegisterRefresh(fs),
		Health:    RegisterHealth(fs),
		Trust:     RegisterTrust(fs),
		Chaos:     RegisterChaos(fs),
		Serve:     RegisterServe(fs, opts),
	}
}

// Apply writes every group's parsed values into cfg.
func (s *Set) Apply(cfg *dohpool.Config) error {
	s.Consensus.Apply(cfg)
	s.Cache.Apply(cfg)
	s.Refresh.Apply(cfg)
	s.Health.Apply(cfg)
	s.Trust.Apply(cfg)
	if err := s.Chaos.Apply(cfg); err != nil {
		return err
	}
	s.Serve.Apply(cfg)
	return nil
}
