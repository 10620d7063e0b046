package dohpool

import (
	"reflect"
	"testing"
	"time"
)

// TestAliasPrecedence drives every deprecated flat field through
// resolved() three ways — flat only, grouped only, both — and asserts
// the grouped spelling wins when both are set while the flat spelling
// still works alone.
func TestAliasPrecedence(t *testing.T) {
	type tc struct {
		name    string
		flat    func(*Config) // set via the deprecated flat field
		grouped func(*Config) // set via the grouped field, different value
		// check returns the effective value read from the resolved
		// grouped field, for comparison against want.
		check       func(Config) any
		wantFlat    any // expected when only flat is set
		wantGrouped any // expected when both are set (grouped wins)
	}
	cases := []tc{
		{
			name:        "CacheSize",
			flat:        func(c *Config) { c.CacheSize = 100 },
			grouped:     func(c *Config) { c.Cache.Size = 200 },
			check:       func(c Config) any { return c.Cache.Size },
			wantFlat:    100,
			wantGrouped: 200,
		},
		{
			name:        "CacheSize negative sentinel counts as set",
			flat:        func(c *Config) { c.CacheSize = 100 },
			grouped:     func(c *Config) { c.Cache.Size = -1 },
			check:       func(c Config) any { return c.Cache.Size },
			wantFlat:    100,
			wantGrouped: -1,
		},
		{
			name:        "CacheShards",
			flat:        func(c *Config) { c.CacheShards = 2 },
			grouped:     func(c *Config) { c.Cache.Shards = 4 },
			check:       func(c Config) any { return c.Cache.Shards },
			wantFlat:    2,
			wantGrouped: 4,
		},
		{
			name:        "StaleWhileRevalidate",
			flat:        func(c *Config) { c.StaleWhileRevalidate = time.Minute },
			grouped:     func(c *Config) { c.Cache.StaleWhileRevalidate = time.Hour },
			check:       func(c Config) any { return c.Cache.StaleWhileRevalidate },
			wantFlat:    time.Minute,
			wantGrouped: time.Hour,
		},
		{
			name:        "MaxStale",
			flat:        func(c *Config) { c.MaxStale = time.Minute },
			grouped:     func(c *Config) { c.Cache.StaleWhileRevalidate = time.Hour },
			check:       func(c Config) any { return c.Cache.StaleWhileRevalidate },
			wantFlat:    time.Minute,
			wantGrouped: time.Hour,
		},
		{
			name:        "RefreshAhead",
			flat:        func(c *Config) { c.RefreshAhead = 0.5 },
			grouped:     func(c *Config) { c.Refresh.Ahead = 0.8 },
			check:       func(c Config) any { return c.Refresh.Ahead },
			wantFlat:    0.5,
			wantGrouped: 0.8,
		},
		{
			name:        "RefreshMinHits",
			flat:        func(c *Config) { c.RefreshMinHits = 2 },
			grouped:     func(c *Config) { c.Refresh.MinHits = 5 },
			check:       func(c Config) any { return c.Refresh.MinHits },
			wantFlat:    uint64(2),
			wantGrouped: uint64(5),
		},
		{
			name:        "HedgeDelay",
			flat:        func(c *Config) { c.HedgeDelay = time.Millisecond },
			grouped:     func(c *Config) { c.Health.HedgeDelay = time.Second },
			check:       func(c Config) any { return c.Health.HedgeDelay },
			wantFlat:    time.Millisecond,
			wantGrouped: time.Second,
		},
		{
			name:        "DisableHedging (bool OR)",
			flat:        func(c *Config) { c.DisableHedging = true },
			grouped:     func(c *Config) { c.Health.DisableHedging = true },
			check:       func(c Config) any { return c.Health.DisableHedging },
			wantFlat:    true,
			wantGrouped: true,
		},
		{
			name:        "BreakerThreshold",
			flat:        func(c *Config) { c.BreakerThreshold = 5 },
			grouped:     func(c *Config) { c.Health.BreakerThreshold = -1 },
			check:       func(c Config) any { return c.Health.BreakerThreshold },
			wantFlat:    5,
			wantGrouped: -1,
		},
		{
			name:        "BreakerCooldown",
			flat:        func(c *Config) { c.BreakerCooldown = time.Second },
			grouped:     func(c *Config) { c.Health.BreakerCooldown = time.Minute },
			check:       func(c Config) any { return c.Health.BreakerCooldown },
			wantFlat:    time.Second,
			wantGrouped: time.Minute,
		},
		{
			name:        "TrustWindow",
			flat:        func(c *Config) { c.TrustWindow = 8 },
			grouped:     func(c *Config) { c.Trust.Window = 32 },
			check:       func(c Config) any { return c.Trust.Window },
			wantFlat:    8,
			wantGrouped: 32,
		},
		{
			name:        "TrustMinScore",
			flat:        func(c *Config) { c.TrustMinScore = 0.3 },
			grouped:     func(c *Config) { c.Trust.MinScore = 0.5 },
			check:       func(c Config) any { return c.Trust.MinScore },
			wantFlat:    0.3,
			wantGrouped: 0.5,
		},
		{
			name:        "ChaosPayload",
			flat:        func(c *Config) { c.ChaosPayload = "replace" },
			grouped:     func(c *Config) { c.Chaos.Payload = "inflate" },
			check:       func(c Config) any { return c.Chaos.Payload },
			wantFlat:    "replace",
			wantGrouped: "inflate",
		},
		{
			name:        "ChaosResolvers",
			flat:        func(c *Config) { c.ChaosResolvers = []int{0} },
			grouped:     func(c *Config) { c.Chaos.Resolvers = []int{1, 2} },
			check:       func(c Config) any { return len(c.Chaos.Resolvers) },
			wantFlat:    1,
			wantGrouped: 2,
		},
		{
			name:        "ChaosProb",
			flat:        func(c *Config) { c.ChaosProb = 0.25 },
			grouped:     func(c *Config) { c.Chaos.Prob = 0.75 },
			check:       func(c Config) any { return c.Chaos.Prob },
			wantFlat:    0.25,
			wantGrouped: 0.75,
		},
		{
			name:        "ChaosSeed",
			flat:        func(c *Config) { c.ChaosSeed = 7 },
			grouped:     func(c *Config) { c.Chaos.Seed = 11 },
			check:       func(c Config) any { return c.Chaos.Seed },
			wantFlat:    int64(7),
			wantGrouped: int64(11),
		},
		{
			name:        "UDPBatch",
			flat:        func(c *Config) { c.UDPBatch = 1 },
			grouped:     func(c *Config) { c.Serve.UDPBatch = 32 },
			check:       func(c Config) any { return c.Serve.UDPBatch },
			wantFlat:    1,
			wantGrouped: 32,
		},
		{
			name:        "MaxTCPConns",
			flat:        func(c *Config) { c.MaxTCPConns = 10 },
			grouped:     func(c *Config) { c.Serve.MaxTCPConns = 99 },
			check:       func(c Config) any { return c.Serve.MaxTCPConns },
			wantFlat:    10,
			wantGrouped: 99,
		},
		{
			name:        "DoHAddr",
			flat:        func(c *Config) { c.DoHAddr = "127.0.0.1:1" },
			grouped:     func(c *Config) { c.Serve.DoHAddr = "127.0.0.1:2" },
			check:       func(c Config) any { return c.Serve.DoHAddr },
			wantFlat:    "127.0.0.1:1",
			wantGrouped: "127.0.0.1:2",
		},
		{
			name:        "DoTAddr",
			flat:        func(c *Config) { c.DoTAddr = "127.0.0.1:1" },
			grouped:     func(c *Config) { c.Serve.DoTAddr = "127.0.0.1:2" },
			check:       func(c Config) any { return c.Serve.DoTAddr },
			wantFlat:    "127.0.0.1:1",
			wantGrouped: "127.0.0.1:2",
		},
		{
			name:        "TLSCert",
			flat:        func(c *Config) { c.TLSCert = "flat.pem" },
			grouped:     func(c *Config) { c.Serve.TLSCert = "grouped.pem" },
			check:       func(c Config) any { return c.Serve.TLSCert },
			wantFlat:    "flat.pem",
			wantGrouped: "grouped.pem",
		},
		{
			name:        "TLSKey",
			flat:        func(c *Config) { c.TLSKey = "flat.key" },
			grouped:     func(c *Config) { c.Serve.TLSKey = "grouped.key" },
			check:       func(c Config) any { return c.Serve.TLSKey },
			wantFlat:    "flat.key",
			wantGrouped: "grouped.key",
		},
		{
			name:        "TLSSelfSigned (bool OR)",
			flat:        func(c *Config) { c.TLSSelfSigned = true },
			grouped:     func(c *Config) { c.Serve.TLSSelfSigned = true },
			check:       func(c Config) any { return c.Serve.TLSSelfSigned },
			wantFlat:    true,
			wantGrouped: true,
		},
		{
			name:        "AdminAddr",
			flat:        func(c *Config) { c.AdminAddr = "127.0.0.1:1" },
			grouped:     func(c *Config) { c.Serve.AdminAddr = "127.0.0.1:2" },
			check:       func(c Config) any { return c.Serve.AdminAddr },
			wantFlat:    "127.0.0.1:1",
			wantGrouped: "127.0.0.1:2",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var flatOnly Config
			c.flat(&flatOnly)
			if got := c.check(flatOnly.resolved()); got != c.wantFlat {
				t.Errorf("flat only: effective = %v, want %v", got, c.wantFlat)
			}
			var groupedOnly Config
			c.grouped(&groupedOnly)
			if got := c.check(groupedOnly.resolved()); got != c.wantGrouped {
				t.Errorf("grouped only: effective = %v, want %v", got, c.wantGrouped)
			}
			var both Config
			c.flat(&both)
			c.grouped(&both)
			if got := c.check(both.resolved()); got != c.wantGrouped {
				t.Errorf("both set: effective = %v, want grouped %v", got, c.wantGrouped)
			}
		})
	}
}

// TestStaleChainPrecedence pins the one three-deep alias chain:
// Cache.StaleWhileRevalidate > StaleWhileRevalidate > MaxStale.
func TestStaleChainPrecedence(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want time.Duration
	}{
		{"MaxStale alone", Config{MaxStale: time.Minute}, time.Minute},
		{"flat SWR beats MaxStale", Config{MaxStale: time.Minute, StaleWhileRevalidate: time.Hour}, time.Hour},
		{"grouped beats flat SWR", Config{StaleWhileRevalidate: time.Hour, Cache: CacheConfig{StaleWhileRevalidate: time.Second}}, time.Second},
		{"grouped beats all", Config{MaxStale: time.Minute, StaleWhileRevalidate: time.Hour, Cache: CacheConfig{StaleWhileRevalidate: time.Second}}, time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.cfg.resolved()
			if r.Cache.StaleWhileRevalidate != tc.want {
				t.Errorf("effective SWR = %v, want %v", r.Cache.StaleWhileRevalidate, tc.want)
			}
			// The resolved config writes the effective value back to
			// every alias, so any reader sees one truth.
			if r.StaleWhileRevalidate != tc.want || r.MaxStale != tc.want {
				t.Errorf("aliases not synced: SWR=%v MaxStale=%v, want %v",
					r.StaleWhileRevalidate, r.MaxStale, tc.want)
			}
		})
	}
}

// TestResolvedSyncsFlatAliases asserts resolved() writes effective
// values back to the deprecated flat spellings.
func TestResolvedSyncsFlatAliases(t *testing.T) {
	r := Config{
		Cache:   CacheConfig{Size: 7, Shards: 2},
		Refresh: RefreshConfig{Ahead: 0.8, MinHits: 3},
		Health:  HealthConfig{HedgeDelay: time.Second, BreakerThreshold: 4, BreakerCooldown: time.Minute},
		Trust:   TrustConfig{Window: 9, MinScore: 0.5},
		Serve:   ServeConfig{UDPBatch: 3, DoHAddr: "x", AdminAddr: "y"},
	}.resolved()
	if r.CacheSize != 7 || r.CacheShards != 2 || r.RefreshAhead != 0.8 || r.RefreshMinHits != 3 ||
		r.HedgeDelay != time.Second || r.BreakerThreshold != 4 || r.BreakerCooldown != time.Minute ||
		r.TrustWindow != 9 || r.TrustMinScore != 0.5 ||
		r.UDPBatch != 3 || r.DoHAddr != "x" || r.AdminAddr != "y" {
		t.Errorf("flat aliases not synced from grouped: %+v", r)
	}
}

// TestNetChaosConfigActive pins which combinations engage the
// network-fault layer.
func TestNetChaosConfigActive(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  NetChaosConfig
		want bool
	}{
		{"zero", NetChaosConfig{}, false},
		{"drop", NetChaosConfig{DropProb: 0.1}, true},
		{"delay", NetChaosConfig{Delay: time.Millisecond}, true},
		{"jitter only", NetChaosConfig{Jitter: time.Millisecond}, true},
		{"partition needs both", NetChaosConfig{PartitionEvery: time.Second}, false},
		{"partition", NetChaosConfig{PartitionEvery: time.Second, PartitionFor: time.Millisecond}, true},
		{"churn needs both", NetChaosConfig{ChurnDowntime: time.Second}, false},
		{"churn", NetChaosConfig{ChurnEvery: time.Second, ChurnDowntime: time.Millisecond}, true},
	} {
		if got := tc.cfg.Active(); got != tc.want {
			t.Errorf("%s: Active() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// configSurface is the locked exported field surface of Config and its
// sub-structs. Removing or renaming any of these fields is an API
// break; this test turns that into a diff you must consciously edit.
var configSurface = map[string][]string{
	"Config": {
		"Resolvers", "TLSConfig", "UseGET", "UsePadding", "MinResolvers",
		"WithMajority", "Sequential", "DualStack", "QueryTimeout", "HTTPClient",
		"Cache", "Refresh", "Health", "Trust", "Chaos", "Serve",
		"CacheSize", "CacheShards", "StaleWhileRevalidate", "MaxStale",
		"RefreshAhead", "RefreshMinHits", "HedgeDelay", "DisableHedging",
		"BreakerThreshold", "BreakerCooldown", "TrustWindow", "TrustMinScore",
		"ChaosPayload", "ChaosResolvers", "ChaosProb", "ChaosSeed",
		"UDPBatch", "MaxTCPConns", "DoHAddr", "DoTAddr",
		"TLSCert", "TLSKey", "TLSSelfSigned", "AdminAddr",
	},
	"CacheConfig":   {"Size", "Shards", "StaleWhileRevalidate"},
	"RefreshConfig": {"Ahead", "MinHits"},
	"HealthConfig":  {"HedgeDelay", "DisableHedging", "BreakerThreshold", "BreakerCooldown"},
	"TrustConfig":   {"Window", "MinScore"},
	"ChaosConfig":   {"Payload", "Resolvers", "Prob", "Seed", "Net"},
	"NetChaosConfig": {
		"DropProb", "Delay", "Jitter", "PartitionEvery", "PartitionFor",
		"ChurnEvery", "ChurnDowntime", "Resolvers",
	},
	"ServeConfig": {
		"UDPBatch", "UDPSockets", "MaxTCPConns", "DoHAddr", "DoTAddr",
		"TLSCert", "TLSKey", "TLSSelfSigned", "AdminAddr",
	},
}

// TestConfigSurfaceLock compares the reflected field sets of the config
// structs against the locked surface above, in both directions.
func TestConfigSurfaceLock(t *testing.T) {
	types := map[string]reflect.Type{
		"Config":         reflect.TypeOf(Config{}),
		"CacheConfig":    reflect.TypeOf(CacheConfig{}),
		"RefreshConfig":  reflect.TypeOf(RefreshConfig{}),
		"HealthConfig":   reflect.TypeOf(HealthConfig{}),
		"TrustConfig":    reflect.TypeOf(TrustConfig{}),
		"ChaosConfig":    reflect.TypeOf(ChaosConfig{}),
		"NetChaosConfig": reflect.TypeOf(NetChaosConfig{}),
		"ServeConfig":    reflect.TypeOf(ServeConfig{}),
	}
	for name, typ := range types {
		locked := make(map[string]bool, len(configSurface[name]))
		for _, f := range configSurface[name] {
			locked[f] = true
		}
		got := make(map[string]bool, typ.NumField())
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			got[f.Name] = true
			if !locked[f.Name] {
				t.Errorf("%s gained exported field %s — extend the locked surface deliberately", name, f.Name)
			}
		}
		for f := range locked {
			if !got[f] {
				t.Errorf("%s lost exported field %s — an API break", name, f)
			}
		}
	}
}
