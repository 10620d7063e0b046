// Package admin is the observability surface of a running consensus
// engine: a small HTTP server exposing Prometheus metrics, breaker-aware
// readiness and a dump of the cached pools. It is deliberately separate
// from the DNS frontend — the admin port is an operator interface and is
// typically bound to loopback or a management network, never exposed
// where DNS clients live.
//
// Endpoints:
//
//	GET /metrics  Prometheus text-format exposition (version 0.0.4)
//	GET /healthz  200 while at least one resolver can be asked;
//	              503 when every resolver's circuit breaker is open
//	GET /poolz    JSON dump of the cached consensus pools with TTLs,
//	              per-entry refresh-ahead state (hits, refreshes, last
//	              refresh outcome) and poisoning visibility (attacker-
//	              prefix entry counts, quarantined resolvers)
//	GET /trustz   JSON dump of per-resolver trust: windowed score,
//	              distrust state and the latest generation's signal
//	              breakdown (bogus prefix, inflation, shortfall,
//	              overlap, majority survival)
//	/debug/pprof/ net/http/pprof: CPU, heap, goroutine and the other
//	              runtime profiles of the running daemon
package admin

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"dohpool/internal/core"
	"dohpool/internal/metrics"
)

// Engine is the view of the consensus engine the admin server needs.
// *core.Engine implements it.
type Engine interface {
	Health() []core.ResolverHealth
	Ready() bool
	CachedPools() []core.CachedPool
	// Trust reports per-resolver trust (nil when trust tracking is
	// disabled).
	Trust() []core.ResolverTrust
}

// Config wires the admin server to its data sources.
type Config struct {
	// Registry backs /metrics. Nil renders an empty exposition.
	Registry *metrics.Registry
	// Engine backs /healthz and /poolz. Nil reports ready and no pools.
	Engine Engine
	// Listeners, when non-nil, reports the serving frontend's live
	// listener state (udp/tcp/dot/doh, addresses, encrypted or not) for
	// /healthz and /poolz. It is a callback because the frontend
	// typically starts after the admin server.
	Listeners func() []core.ListenerInfo
}

// Server is a running admin HTTP server. Create with Start, stop with
// Close.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Start listens on addr (e.g. "127.0.0.1:8053", ":0" for ephemeral) and
// serves the admin endpoints until Close.
func Start(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin listen: %w", err)
	}
	s := &Server{ln: ln}
	s.srv = &http.Server{
		Handler:           Handler(cfg),
		ReadHeaderTimeout: 5 * time.Second,
	}
	// The Serve loop has no Done/close to observe statically: Close tears
	// down the listener, which makes Serve return immediately.
	go func() { _ = s.srv.Serve(ln) }() // dohlint:allow(golifecycle) — joined via srv.Close unblocking Serve
	return s, nil
}

// Addr returns the server's host:port.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server immediately (scrapes are short-lived; there is
// nothing worth draining).
func (s *Server) Close() error {
	return s.srv.Close()
}

// Handler builds the admin endpoint mux — exported so embedding
// applications can mount the endpoints on their own server.
func Handler(cfg Config) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = cfg.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeHealth(w, cfg.Engine, listenerState(cfg))
	})
	mux.HandleFunc("GET /poolz", func(w http.ResponseWriter, r *http.Request) {
		writePools(w, cfg.Engine, listenerState(cfg))
	})
	mux.HandleFunc("GET /trustz", func(w http.ResponseWriter, r *http.Request) {
		writeTrust(w, cfg.Engine)
	})
	// Mounted by hand: nothing here serves http.DefaultServeMux, where
	// importing net/http/pprof registers itself.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// listenerState snapshots the frontend's listeners ([] when no
// frontend is serving yet, so the JSON field is always present).
func listenerState(cfg Config) []core.ListenerInfo {
	out := []core.ListenerInfo{}
	if cfg.Listeners != nil {
		out = append(out, cfg.Listeners()...)
	}
	return out
}

// healthResponse is the /healthz JSON body.
type healthResponse struct {
	Status string `json:"status"` // "ok" | "unavailable"
	// Listeners is the serving frontend's live listener state — which
	// transports (udp/tcp/dot/doh) are answering, and where.
	Listeners []core.ListenerInfo `json:"listeners"`
	Resolvers []resolverHealth    `json:"resolvers"`
}

type resolverHealth struct {
	Name                string  `json:"name"`
	URL                 string  `json:"url"`
	EWMARTTSeconds      float64 `json:"ewma_rtt_seconds"`
	Successes           uint64  `json:"successes"`
	Failures            uint64  `json:"failures"`
	Hedges              uint64  `json:"hedges"`
	ConsecutiveFailures int     `json:"consecutive_failures"`
	CircuitOpen         bool    `json:"circuit_open"`
}

func writeHealth(w http.ResponseWriter, eng Engine, listeners []core.ListenerInfo) {
	resp := healthResponse{Status: "ok", Listeners: listeners}
	if eng != nil {
		for _, h := range eng.Health() {
			resp.Resolvers = append(resp.Resolvers, resolverHealth{
				Name:                h.Name,
				URL:                 h.URL,
				EWMARTTSeconds:      h.EWMARTT.Seconds(),
				Successes:           h.Successes,
				Failures:            h.Failures,
				Hedges:              h.Hedges,
				ConsecutiveFailures: h.ConsecutiveFailures,
				CircuitOpen:         h.CircuitOpen,
			})
		}
		if !eng.Ready() {
			resp.Status = "unavailable"
		}
	}
	code := http.StatusOK
	if resp.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// poolsResponse is the /poolz JSON body.
type poolsResponse struct {
	// Listeners names the transports the cached pools are being served
	// over.
	Listeners []core.ListenerInfo `json:"listeners"`
	Pools     []cachedPool        `json:"pools"`
}

type cachedPool struct {
	Key            string   `json:"key"`
	Addrs          []string `json:"addrs"`
	TruncateLength int      `json:"truncate_length"`
	Responding     int      `json:"responding"`
	// AttackerEntries counts pool members inside the attacker prefix
	// (198.18.0.0/15); non-zero means a poisoned consensus is cached.
	AttackerEntries int `json:"attacker_entries"`
	// Distrusted names resolvers whose contributions trust enforcement
	// quarantined when this pool was generated.
	Distrusted []string `json:"distrusted,omitempty"`
	AgeSeconds float64  `json:"age_seconds"`
	TTLSeconds float64  `json:"ttl_seconds"` // negative once expired
	Stale      bool     `json:"stale"`
	// Refresh-ahead state: lifetime hits (the popularity signal),
	// background regenerations recorded, and how the latest one ended
	// ("none" | "ok" | "failed").
	Hits        uint64 `json:"hits"`
	Refreshes   uint64 `json:"refreshes"`
	LastRefresh string `json:"last_refresh"`
}

func writePools(w http.ResponseWriter, eng Engine, listeners []core.ListenerInfo) {
	resp := poolsResponse{Listeners: listeners, Pools: []cachedPool{}}
	if eng != nil {
		for _, p := range eng.CachedPools() {
			cp := cachedPool{
				Key:             p.Key,
				Addrs:           make([]string, len(p.Addrs)),
				TruncateLength:  p.TruncateLength,
				Responding:      p.Responding,
				AttackerEntries: p.AttackerEntries,
				Distrusted:      p.Distrusted,
				AgeSeconds:      p.Age.Seconds(),
				TTLSeconds:      p.Remaining.Seconds(),
				Stale:           p.Remaining < 0,
				Hits:            p.Hits,
				Refreshes:       p.Refreshes,
				LastRefresh:     p.LastRefresh.String(),
			}
			for i, a := range p.Addrs {
				cp.Addrs[i] = a.String()
			}
			resp.Pools = append(resp.Pools, cp)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// trustResponse is the /trustz JSON body.
type trustResponse struct {
	// Enabled is false when the engine runs without trust tracking.
	Enabled   bool            `json:"enabled"`
	Resolvers []resolverTrust `json:"resolvers"`
}

type resolverTrust struct {
	Name       string  `json:"name"`
	URL        string  `json:"url"`
	Score      float64 `json:"score"`
	Samples    int     `json:"samples"`
	Distrusted bool    `json:"distrusted"`
	// Last generation's signal components, each in [0,1].
	LastBogus     float64 `json:"last_bogus"`
	LastInflation float64 `json:"last_inflation"`
	LastShortfall float64 `json:"last_shortfall"`
	LastOverlap   float64 `json:"last_overlap"`
	LastMajority  float64 `json:"last_majority"`
	LastScore     float64 `json:"last_score"`
}

func writeTrust(w http.ResponseWriter, eng Engine) {
	resp := trustResponse{Resolvers: []resolverTrust{}}
	if eng != nil {
		if snap := eng.Trust(); snap != nil {
			resp.Enabled = true
			for _, t := range snap {
				resp.Resolvers = append(resp.Resolvers, resolverTrust{
					Name:          t.Name,
					URL:           t.URL,
					Score:         t.Score,
					Samples:       t.Samples,
					Distrusted:    t.Distrusted,
					LastBogus:     t.Last.Bogus,
					LastInflation: t.Last.Inflation,
					LastShortfall: t.Last.Shortfall,
					LastOverlap:   t.Last.Overlap,
					LastMajority:  t.Last.Majority,
					LastScore:     t.Last.Score,
				})
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
