// Package cliflags (fixture) mirrors the real internal/cliflags shape
// against the real dohpool.Config, but leaves one grouped knob with no
// flag assignment — the drift the configalias analyzer must catch.
package cliflags // want `grouped Config field Serve\.UDPSockets has no cliflags assignment`

import "dohpool"

func apply(cfg *dohpool.Config) {
	cfg.Cache.Size = 1
	cfg.Cache.Shards = 1
	cfg.Cache.StaleWhileRevalidate = 1
	cfg.Refresh.Ahead = 0.5
	cfg.Refresh.MinHits = 1
	cfg.Health.HedgeDelay = 1
	cfg.Health.DisableHedging = true
	cfg.Health.BreakerThreshold = 1
	cfg.Health.BreakerCooldown = 1
	cfg.Trust.Window = 1
	cfg.Trust.MinScore = 0.5
	cfg.Chaos.Payload = "replace"
	cfg.Chaos.Resolvers = nil
	cfg.Chaos.Prob = 1
	cfg.Chaos.Seed = 1
	cfg.Chaos.Net = dohpool.NetChaosConfig{}
	cfg.Serve.UDPBatch = 1
	// Serve.UDPSockets deliberately missing.
	cfg.Serve.MaxTCPConns = 1
	cfg.Serve.DoHAddr = ":8443"
	cfg.Serve.DoTAddr = ":8853"
	cfg.Serve.TLSCert = "cert.pem"
	cfg.Serve.TLSKey = "key.pem"
	cfg.Serve.TLSSelfSigned = true
	cfg.Serve.AdminAddr = ":8053"
}
