package cliflags

import (
	"flag"
	"io"
	"reflect"
	"testing"
	"time"

	"dohpool"
)

func newSet(t *testing.T, args ...string) (*flag.FlagSet, *Set) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	set := RegisterAll(fs, ServeOptions{})
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return fs, set
}

// flagFor maps every exported field of the grouped config sub-structs
// to the flag that sets it. The drift test below walks the structs by
// reflection, so adding a field to the library without deciding on its
// CLI spelling (or deliberately recording it as flagless here) fails.
var flagFor = map[string]string{
	"CacheConfig.Size":                 "cache-size",
	"CacheConfig.Shards":               "cache-shards",
	"CacheConfig.StaleWhileRevalidate": "stale-while-revalidate",

	"RefreshConfig.Ahead":   "refresh-ahead",
	"RefreshConfig.MinHits": "refresh-min-hits",

	"HealthConfig.HedgeDelay":       "hedge-delay",
	"HealthConfig.DisableHedging":   "no-hedge",
	"HealthConfig.BreakerThreshold": "breaker-threshold",
	"HealthConfig.BreakerCooldown":  "breaker-cooldown",

	"TrustConfig.Window":   "trust-window",
	"TrustConfig.MinScore": "trust-min-score",

	"ChaosConfig.Payload":   "chaos-payload",
	"ChaosConfig.Resolvers": "chaos-resolvers",
	"ChaosConfig.Prob":      "chaos-prob",
	"ChaosConfig.Seed":      "chaos-seed",
	"ChaosConfig.Net":       "", // expanded via NetChaosConfig below

	"NetChaosConfig.DropProb":       "net-chaos-drop",
	"NetChaosConfig.Delay":          "net-chaos-delay",
	"NetChaosConfig.Jitter":         "net-chaos-jitter",
	"NetChaosConfig.PartitionEvery": "net-chaos-partition-every",
	"NetChaosConfig.PartitionFor":   "net-chaos-partition-for",
	"NetChaosConfig.ChurnEvery":     "net-chaos-churn-every",
	"NetChaosConfig.ChurnDowntime":  "net-chaos-churn-downtime",
	"NetChaosConfig.Resolvers":      "net-chaos-resolvers",

	"ServeConfig.UDPBatch":      "udp-batch",
	"ServeConfig.UDPSockets":    "udp-sockets",
	"ServeConfig.MaxTCPConns":   "max-tcp-conns",
	"ServeConfig.DoHAddr":       "doh-addr",
	"ServeConfig.DoTAddr":       "dot-addr",
	"ServeConfig.TLSCert":       "tls-cert",
	"ServeConfig.TLSKey":        "tls-key",
	"ServeConfig.TLSSelfSigned": "tls-self-signed",
	"ServeConfig.AdminAddr":     "admin",
}

func TestEveryGroupedFieldHasAFlag(t *testing.T) {
	fs, _ := newSet(t)
	registered := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { registered[f.Name] = true })

	for _, typ := range []reflect.Type{
		reflect.TypeOf(dohpool.CacheConfig{}),
		reflect.TypeOf(dohpool.RefreshConfig{}),
		reflect.TypeOf(dohpool.HealthConfig{}),
		reflect.TypeOf(dohpool.TrustConfig{}),
		reflect.TypeOf(dohpool.ChaosConfig{}),
		reflect.TypeOf(dohpool.NetChaosConfig{}),
		reflect.TypeOf(dohpool.ServeConfig{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			field := typ.Name() + "." + typ.Field(i).Name
			name, ok := flagFor[field]
			if !ok {
				t.Errorf("config field %s has no entry in flagFor: pick a flag spelling in cliflags (or record it as flagless here)", field)
				continue
			}
			if name == "" {
				continue
			}
			if !registered[name] {
				t.Errorf("flagFor maps %s to -%s, but no such flag is registered", field, name)
			}
		}
	}
	// The reverse direction: a mapping naming a dead field means the
	// library dropped it and this table (and likely a flag) is stale.
	known := map[string]bool{}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(dohpool.CacheConfig{}),
		reflect.TypeOf(dohpool.RefreshConfig{}),
		reflect.TypeOf(dohpool.HealthConfig{}),
		reflect.TypeOf(dohpool.TrustConfig{}),
		reflect.TypeOf(dohpool.ChaosConfig{}),
		reflect.TypeOf(dohpool.NetChaosConfig{}),
		reflect.TypeOf(dohpool.ServeConfig{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			known[typ.Name()+"."+typ.Field(i).Name] = true
		}
	}
	for field := range flagFor {
		if !known[field] {
			t.Errorf("flagFor entry %s names a field that no longer exists", field)
		}
	}
}

func TestApplyWritesGroupedFields(t *testing.T) {
	_, set := newSet(t,
		"-quorum=3", "-majority", "-timeout=2s",
		"-cache-size=512", "-cache-shards=8", "-stale-while-revalidate=45s",
		"-refresh-ahead=0.8", "-refresh-min-hits=4",
		"-hedge-delay=25ms", "-no-hedge", "-breaker-threshold=7", "-breaker-cooldown=9s",
		"-trust-window=32", "-trust-min-score=0.5",
		"-chaos-payload=replace", "-chaos-resolvers=0,2", "-chaos-prob=0.25", "-chaos-seed=42",
		"-net-chaos-drop=0.1", "-net-chaos-delay=5ms", "-net-chaos-jitter=2ms",
		"-net-chaos-partition-every=10s", "-net-chaos-partition-for=1s",
		"-net-chaos-churn-every=30s", "-net-chaos-churn-downtime=3s",
		"-net-chaos-resolvers=1",
		"-udp-batch=32", "-udp-sockets=3", "-max-tcp-conns=64",
		"-doh-addr=127.0.0.1:8443", "-dot-addr=127.0.0.1:8853",
		"-tls-cert=c.pem", "-tls-key=k.pem", "-tls-self-signed",
		"-admin=127.0.0.1:9090",
	)
	var cfg dohpool.Config
	if err := set.Apply(&cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.MinResolvers != 3 || !cfg.WithMajority || cfg.QueryTimeout != 2*time.Second {
		t.Errorf("consensus = %d/%v/%v", cfg.MinResolvers, cfg.WithMajority, cfg.QueryTimeout)
	}
	wantCache := dohpool.CacheConfig{Size: 512, Shards: 8, StaleWhileRevalidate: 45 * time.Second}
	if cfg.Cache != wantCache {
		t.Errorf("Cache = %+v, want %+v", cfg.Cache, wantCache)
	}
	wantRefresh := dohpool.RefreshConfig{Ahead: 0.8, MinHits: 4}
	if cfg.Refresh != wantRefresh {
		t.Errorf("Refresh = %+v, want %+v", cfg.Refresh, wantRefresh)
	}
	wantHealth := dohpool.HealthConfig{
		HedgeDelay: 25 * time.Millisecond, DisableHedging: true,
		BreakerThreshold: 7, BreakerCooldown: 9 * time.Second,
	}
	if cfg.Health != wantHealth {
		t.Errorf("Health = %+v, want %+v", cfg.Health, wantHealth)
	}
	wantTrust := dohpool.TrustConfig{Window: 32, MinScore: 0.5}
	if cfg.Trust != wantTrust {
		t.Errorf("Trust = %+v, want %+v", cfg.Trust, wantTrust)
	}
	if cfg.Chaos.Payload != "replace" || cfg.Chaos.Prob != 0.25 || cfg.Chaos.Seed != 42 {
		t.Errorf("Chaos = %+v", cfg.Chaos)
	}
	if !reflect.DeepEqual(cfg.Chaos.Resolvers, []int{0, 2}) {
		t.Errorf("Chaos.Resolvers = %v", cfg.Chaos.Resolvers)
	}
	wantNet := dohpool.NetChaosConfig{
		DropProb: 0.1, Delay: 5 * time.Millisecond, Jitter: 2 * time.Millisecond,
		PartitionEvery: 10 * time.Second, PartitionFor: time.Second,
		ChurnEvery: 30 * time.Second, ChurnDowntime: 3 * time.Second,
		Resolvers: []int{1},
	}
	if !reflect.DeepEqual(cfg.Chaos.Net, wantNet) {
		t.Errorf("Chaos.Net = %+v, want %+v", cfg.Chaos.Net, wantNet)
	}
	wantServe := dohpool.ServeConfig{
		UDPBatch: 32, UDPSockets: 3, MaxTCPConns: 64,
		DoHAddr: "127.0.0.1:8443", DoTAddr: "127.0.0.1:8853",
		TLSCert: "c.pem", TLSKey: "k.pem", TLSSelfSigned: true,
		AdminAddr: "127.0.0.1:9090",
	}
	if cfg.Serve != wantServe {
		t.Errorf("Serve = %+v, want %+v", cfg.Serve, wantServe)
	}
}

func TestApplyMaxStaleAliasAndDefaults(t *testing.T) {
	_, set := newSet(t, "-max-stale=30s")
	var cfg dohpool.Config
	if err := set.Apply(&cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Cache.StaleWhileRevalidate != 30*time.Second {
		t.Errorf("-max-stale alone: SWR = %v, want 30s", cfg.Cache.StaleWhileRevalidate)
	}

	_, set = newSet(t, "-max-stale=30s", "-stale-while-revalidate=10s")
	cfg = dohpool.Config{}
	if err := set.Apply(&cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Cache.StaleWhileRevalidate != 10*time.Second {
		t.Errorf("both staleness flags: SWR = %v, want the non-deprecated 10s", cfg.Cache.StaleWhileRevalidate)
	}

	// Defaults must leave the zero Config zero so the library's own
	// defaulting still decides (except QueryTimeout and MinHits, whose
	// flag defaults are the documented daemon defaults).
	_, set = newSet(t)
	cfg = dohpool.Config{}
	if err := set.Apply(&cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.QueryTimeout != 4*time.Second || cfg.Refresh.MinHits != 1 {
		t.Errorf("flag defaults: timeout=%v minhits=%d", cfg.QueryTimeout, cfg.Refresh.MinHits)
	}
	if cfg.Cache != (dohpool.CacheConfig{}) || cfg.Health != (dohpool.HealthConfig{}) ||
		cfg.Trust != (dohpool.TrustConfig{}) || cfg.Serve != (dohpool.ServeConfig{}) {
		t.Errorf("zero flags perturbed grouped config: %+v", cfg)
	}
	if cfg.Chaos.Net.Active() {
		t.Error("zero flags turned net chaos on")
	}
}

func TestApplyBadIndexList(t *testing.T) {
	_, set := newSet(t, "-chaos-resolvers=0,x")
	var cfg dohpool.Config
	if err := set.Apply(&cfg); err == nil {
		t.Fatal("bad -chaos-resolvers accepted")
	}
	_, set = newSet(t, "-net-chaos-resolvers=,")
	if err := set.Apply(&cfg); err == nil {
		t.Fatal("bad -net-chaos-resolvers accepted")
	}
}

func TestParseIndexList(t *testing.T) {
	got, err := ParseIndexList(" 0, 2,5")
	if err != nil || !reflect.DeepEqual(got, []int{0, 2, 5}) {
		t.Fatalf("ParseIndexList = %v, %v", got, err)
	}
	if got, err := ParseIndexList(""); err != nil || got != nil {
		t.Fatalf("empty = %v, %v", got, err)
	}
	if _, err := ParseIndexList("1,"); err == nil {
		t.Fatal("trailing comma accepted")
	}
}

func TestServeAdminDefault(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := RegisterServe(fs, ServeOptions{AdminDefault: "127.0.0.1:8053"})
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	var cfg dohpool.Config
	s.Apply(&cfg)
	if cfg.Serve.AdminAddr != "127.0.0.1:8053" {
		t.Fatalf("AdminAddr default = %q", cfg.Serve.AdminAddr)
	}
}
