package admin

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"strings"
	"testing"
	"time"

	"dohpool/internal/attack"
	"dohpool/internal/core"
	"dohpool/internal/dnswire"
	"dohpool/internal/metrics"
)

// fakeQuerier answers every resolver URL with a fixed list, or fails
// when broken.
type fakeQuerier struct {
	lists  map[string][]netip.Addr
	broken bool
}

func (f *fakeQuerier) Query(_ context.Context, url, name string, typ dnswire.Type) (*dnswire.Message, error) {
	if f.broken {
		return nil, errors.New("resolver down")
	}
	query, err := dnswire.NewQuery(name, typ)
	if err != nil {
		return nil, err
	}
	resp := dnswire.NewResponse(query)
	for _, a := range f.lists[url] {
		resp.Answers = append(resp.Answers, dnswire.AddressRecord(name, a, 120))
	}
	return resp, nil
}

func engineUnderTest(t *testing.T, reg *metrics.Registry, q core.Querier, threshold int) *core.Engine {
	t.Helper()
	eng, err := core.NewEngine(core.Config{
		Resolvers: []core.Endpoint{
			{Name: "r0", URL: "u0"},
			{Name: "r1", URL: "u1"},
			{Name: "r2", URL: "u2"},
		},
		Querier: q,
	}, core.EngineConfig{Metrics: reg, BreakerThreshold: threshold, DisableHedging: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	return eng
}

func workingQuerier() *fakeQuerier {
	return &fakeQuerier{lists: map[string][]netip.Addr{
		"u0": {netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2")},
		"u1": {netip.MustParseAddr("192.0.2.3"), netip.MustParseAddr("192.0.2.4")},
		"u2": {netip.MustParseAddr("192.0.2.5"), netip.MustParseAddr("192.0.2.6")},
	}}
}

func serverUnderTest(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := Start("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpointParsesAsPrometheusText(t *testing.T) {
	reg := metrics.New()
	eng := engineUnderTest(t, reg, workingQuerier(), 0)
	if _, err := eng.Lookup(context.Background(), "pool.test.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	srv := serverUnderTest(t, Config{Registry: reg, Engine: eng})

	code, body := get(t, "http://"+srv.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	if err := metrics.ValidatePrometheusText(body); err != nil {
		t.Fatalf("/metrics is not valid Prometheus text format: %v\n%s", err, body)
	}
	for _, want := range []string{
		core.MetricEngineLookups + `{outcome="network"} 1`,
		core.MetricCacheMisses + " 1",
		core.MetricResolverExchanges + `{resolver="r0",result="ok"} 1`,
		core.MetricBreakerState + `{resolver="r2"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestHealthzFlipsWhenAllBreakersOpen(t *testing.T) {
	reg := metrics.New()
	q := workingQuerier()
	eng := engineUnderTest(t, reg, q, 2)
	srv := serverUnderTest(t, Config{Registry: reg, Engine: eng})
	url := "http://" + srv.Addr() + "/healthz"

	code, body := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET /healthz before failures = %d (%s)", code, body)
	}
	var h struct {
		Status    string `json:"status"`
		Resolvers []struct {
			Name        string `json:"name"`
			CircuitOpen bool   `json:"circuit_open"`
		} `json:"resolvers"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz is not JSON: %v\n%s", err, body)
	}
	if h.Status != "ok" || len(h.Resolvers) != 3 {
		t.Fatalf("healthz = %+v", h)
	}

	// Open every breaker: two failing fan-outs reach threshold 2 on all
	// three resolvers.
	q.broken = true
	for i := 0; i < 2; i++ {
		if _, err := eng.Lookup(context.Background(), fmt.Sprintf("m%d.test.", i), dnswire.TypeA); err == nil {
			t.Fatal("lookup against dead resolvers succeeded")
		}
	}
	code, body = get(t, url)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("GET /healthz with all breakers open = %d (%s)", code, body)
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "unavailable" {
		t.Fatalf("status = %q, want unavailable", h.Status)
	}
	for _, r := range h.Resolvers {
		if !r.CircuitOpen {
			t.Errorf("resolver %s reported closed breaker", r.Name)
		}
	}
}

func TestPoolzReflectsCachedPool(t *testing.T) {
	reg := metrics.New()
	eng := engineUnderTest(t, reg, workingQuerier(), 0)
	srv := serverUnderTest(t, Config{Registry: reg, Engine: eng})
	url := "http://" + srv.Addr() + "/poolz"

	code, body := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET /poolz = %d", code)
	}
	var p struct {
		Pools []struct {
			Key            string   `json:"key"`
			Addrs          []string `json:"addrs"`
			TruncateLength int      `json:"truncate_length"`
			Responding     int      `json:"responding"`
			TTLSeconds     float64  `json:"ttl_seconds"`
			Stale          bool     `json:"stale"`
			Hits           uint64   `json:"hits"`
			Refreshes      uint64   `json:"refreshes"`
			LastRefresh    string   `json:"last_refresh"`
		} `json:"pools"`
	}
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("/poolz is not JSON: %v\n%s", err, body)
	}
	if len(p.Pools) != 0 {
		t.Fatalf("poolz before any lookup = %d pools", len(p.Pools))
	}

	if _, err := eng.Lookup(context.Background(), "pool.test.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	_, body = get(t, url)
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Pools) != 1 {
		t.Fatalf("poolz = %d pools, want 1\n%s", len(p.Pools), body)
	}
	pool := p.Pools[0]
	if !strings.HasPrefix(pool.Key, "pool.test.|") {
		t.Errorf("key = %q", pool.Key)
	}
	if len(pool.Addrs) != 6 || pool.TruncateLength != 2 || pool.Responding != 3 {
		t.Errorf("pool = %+v", pool)
	}
	if pool.Addrs[0] != "192.0.2.1" {
		t.Errorf("addrs[0] = %q", pool.Addrs[0])
	}
	if pool.TTLSeconds <= 0 || pool.TTLSeconds > 120 || pool.Stale {
		t.Errorf("ttl_seconds = %v stale = %v", pool.TTLSeconds, pool.Stale)
	}
	if pool.Refreshes != 0 || pool.LastRefresh != "none" {
		t.Errorf("fresh entry refresh state = %d/%q, want 0/none", pool.Refreshes, pool.LastRefresh)
	}

	// A second lookup is a cache hit; /poolz must reflect it in the
	// entry's popularity counter.
	if _, err := eng.Lookup(context.Background(), "pool.test.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	_, body = get(t, url)
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Pools) != 1 || p.Pools[0].Hits != 1 {
		t.Errorf("hits after one cached lookup = %d, want 1\n%s", p.Pools[0].Hits, body)
	}
}

// TestMetricsExposeRefreshAndShardFamilies verifies the refresh-ahead
// counters and the per-shard hit distribution reach /metrics.
func TestMetricsExposeRefreshAndShardFamilies(t *testing.T) {
	reg := metrics.New()
	eng := engineUnderTest(t, reg, workingQuerier(), 0)
	for i := 0; i < 3; i++ {
		if _, err := eng.Lookup(context.Background(), "pool.test.", dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
	}
	srv := serverUnderTest(t, Config{Registry: reg, Engine: eng})
	code, body := get(t, "http://"+srv.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	if err := metrics.ValidatePrometheusText(body); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	for _, want := range []string{
		core.MetricRefreshAttempts + " 0",
		core.MetricRefreshWins + " 0",
		core.MetricRefreshFailures + " 0",
		core.MetricEngineGenerations + `{trigger="inline"} 1`,
		core.MetricEngineGenerations + `{trigger="background"} 0`,
		core.MetricCacheShardHits + `{shard="0"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The shard hit distribution must sum to the aggregate hit counter.
	var shardSum, total float64
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, core.MetricCacheShardHits+"{") {
			var v float64
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &v); err != nil {
				t.Fatalf("bad shard line %q: %v", line, err)
			}
			shardSum += v
		}
		if strings.HasPrefix(line, core.MetricCacheHits+" ") {
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &total); err != nil {
				t.Fatalf("bad hits line %q: %v", line, err)
			}
		}
	}
	if shardSum != total || total != 2 {
		t.Errorf("shard hits sum = %v, aggregate = %v (want equal, 2)", shardSum, total)
	}
}

// TestListenerStateOnHealthzAndPoolz checks both endpoints surface the
// serving frontend's live listener set (and an empty array, not null,
// before any frontend serves).
func TestListenerStateOnHealthzAndPoolz(t *testing.T) {
	bare := serverUnderTest(t, Config{})
	for _, path := range []string{"/healthz", "/poolz"} {
		_, body := get(t, "http://"+bare.Addr()+path)
		if !strings.Contains(body, `"listeners": []`) {
			t.Errorf("%s without a frontend = %s, want empty listeners array", path, body)
		}
	}

	listeners := []core.ListenerInfo{
		{Proto: "udp", Addr: "127.0.0.1:5353"},
		{Proto: "tcp", Addr: "127.0.0.1:5353"},
		{Proto: "dot", Addr: "127.0.0.1:8853", Encrypted: true},
		{Proto: "doh", Addr: "127.0.0.1:8443", Encrypted: true},
	}
	srv := serverUnderTest(t, Config{Listeners: func() []core.ListenerInfo { return listeners }})
	for _, path := range []string{"/healthz", "/poolz"} {
		code, body := get(t, "http://"+srv.Addr()+path)
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, code)
		}
		for _, l := range listeners {
			if !strings.Contains(body, `"proto": "`+l.Proto+`"`) || !strings.Contains(body, l.Addr) {
				t.Errorf("%s missing %s listener %s: %s", path, l.Proto, l.Addr, body)
			}
		}
		if !strings.Contains(body, `"encrypted": true`) {
			t.Errorf("%s missing encrypted flag: %s", path, body)
		}
	}
}

func TestUnknownPathIs404(t *testing.T) {
	srv := serverUnderTest(t, Config{})
	code, _ := get(t, "http://"+srv.Addr()+"/nope")
	if code != http.StatusNotFound {
		t.Fatalf("GET /nope = %d", code)
	}
}

// TestPprofIndexIsMounted: the profile endpoints are part of the admin
// mux itself (not of http.DefaultServeMux, which nothing serves).
func TestPprofIndexIsMounted(t *testing.T) {
	srv := serverUnderTest(t, Config{})
	code, body := get(t, "http://"+srv.Addr()+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("GET /debug/pprof/ = %d, body %.80q", code, body)
	}
	if code, _ := get(t, "http://"+srv.Addr()+"/debug/pprof/heap?debug=1"); code != http.StatusOK {
		t.Fatalf("GET /debug/pprof/heap = %d", code)
	}
}

// TestTrustzReportsScoresAndQuarantine drives one poisoned generation
// through the engine and checks /trustz exposes the per-resolver scores
// (with the bogus-prefix signal) and /poolz the attacker-entry count.
func TestTrustzReportsScoresAndQuarantine(t *testing.T) {
	reg := metrics.New()
	q := workingQuerier()
	q.lists["u2"] = attack.AttackerAddrs(2)
	eng, err := core.NewEngine(core.Config{
		Resolvers: []core.Endpoint{
			{Name: "r0", URL: "u0"},
			{Name: "r1", URL: "u1"},
			{Name: "r2", URL: "u2"},
		},
		Querier: q,
	}, core.EngineConfig{
		Metrics:        reg,
		DisableHedging: true,
		CacheSize:      -1,
		TrustWindow:    4,
		TrustMinScore:  0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	if _, err := eng.Lookup(context.Background(), "pool.test.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	srv := serverUnderTest(t, Config{Registry: reg, Engine: eng})

	code, body := get(t, "http://"+srv.Addr()+"/trustz")
	if code != http.StatusOK {
		t.Fatalf("GET /trustz = %d", code)
	}
	var tr struct {
		Enabled   bool `json:"enabled"`
		Resolvers []struct {
			Name       string  `json:"name"`
			Score      float64 `json:"score"`
			Distrusted bool    `json:"distrusted"`
			LastBogus  float64 `json:"last_bogus"`
		} `json:"resolvers"`
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("bad /trustz JSON: %v\n%s", err, body)
	}
	if !tr.Enabled || len(tr.Resolvers) != 3 {
		t.Fatalf("/trustz enabled=%v resolvers=%d, want enabled with 3", tr.Enabled, len(tr.Resolvers))
	}
	for _, r := range tr.Resolvers {
		switch r.Name {
		case "r2":
			if r.Score > 0.1 || r.LastBogus != 0 {
				t.Errorf("poisoning resolver r2 = %+v, want near-zero score and bogus=0", r)
			}
		default:
			if r.Score < 0.5 {
				t.Errorf("benign resolver %s score = %v", r.Name, r.Score)
			}
		}
	}

	// /metrics carries the same signal.
	_, metricsBody := get(t, "http://"+srv.Addr()+"/metrics")
	if !strings.Contains(metricsBody, core.MetricResolverTrust+`{resolver="r2"} 0`) {
		t.Errorf("/metrics missing zeroed trust gauge for r2:\n%s", metricsBody)
	}
	if !strings.Contains(metricsBody, core.MetricPoolAttackerEntries+" 2") {
		t.Errorf("/metrics missing %s 2", core.MetricPoolAttackerEntries)
	}
}

// TestPoolzCarriesAttackerEntries checks the cached-pool dump surfaces
// poisoning visibility per entry.
func TestPoolzCarriesAttackerEntries(t *testing.T) {
	reg := metrics.New()
	q := workingQuerier()
	q.lists["u1"] = attack.AttackerAddrs(2)
	eng := engineUnderTest(t, reg, q, 0)
	if _, err := eng.Lookup(context.Background(), "pool.test.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	srv := serverUnderTest(t, Config{Registry: reg, Engine: eng})

	code, body := get(t, "http://"+srv.Addr()+"/poolz")
	if code != http.StatusOK {
		t.Fatalf("GET /poolz = %d", code)
	}
	var pr struct {
		Pools []struct {
			Key             string `json:"key"`
			AttackerEntries int    `json:"attacker_entries"`
		} `json:"pools"`
	}
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatalf("bad /poolz JSON: %v\n%s", err, body)
	}
	if len(pr.Pools) != 1 {
		t.Fatalf("pools = %d, want 1", len(pr.Pools))
	}
	if pr.Pools[0].AttackerEntries != 2 {
		t.Errorf("attacker_entries = %d, want 2", pr.Pools[0].AttackerEntries)
	}
}
