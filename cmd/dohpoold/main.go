// Command dohpoold is the deployable form of the paper's proposal: a
// standard-compatible DNS resolver daemon whose every answer is a secure
// server pool generated through distributed DoH resolvers (Algorithm 1).
// Legacy applications point their stub resolver at it and need no changes.
//
// The daemon runs the long-lived consensus engine: pools are cached until
// their upstream TTL expires, concurrent queries coalesce into one
// resolver fan-out, straggling resolvers are hedged and persistently
// failing ones are circuit-broken. UDP and TCP (RFC 7766) are served on
// the same port.
//
// Usage:
//
//	dohpoold -listen 127.0.0.1:5353 -admin 127.0.0.1:8053 \
//	  -resolver https://dns.google/dns-query \
//	  -resolver https://cloudflare-dns.com/dns-query \
//	  -resolver https://dns.quad9.net/dns-query
//
// While running, the admin server answers `curl :8053/metrics`
// (Prometheus exposition for engine lookups, cache effectiveness,
// resolver health and frontend traffic), `/healthz` (breaker-aware
// readiness) and `/poolz` (cached pools with TTLs).
//
// Flags:
//
//	-listen             UDP+TCP address for the plain-DNS front-end
//	-doh-addr           serve DNS over HTTPS (RFC 8484) on this address
//	-dot-addr           serve DNS over TLS (RFC 7858) on this address
//	-tls-cert/-tls-key  PEM certificate chain and key for the encrypted
//	                    listeners
//	-tls-self-signed    generate an ephemeral self-signed identity
//	                    instead (dev/testbed mode)
//	-tls-ca-out         write the self-signed CA certificate (PEM) to
//	                    this file, for clients to trust
//	-resolver           DoH endpoint URL (repeat ≥ 3 times)
//	-admin              observability HTTP address ("" disables)
//	-stats-on-exit      print cache/health stats at shutdown (the
//	                    pre-admin-server behaviour)
//	-quorum             resolvers that must answer (0 = all)
//	-majority           answer only majority-confirmed addresses
//	-timeout            per-resolver query timeout
//	-cache-size         consensus cache capacity (-1 disables caching)
//	-cache-shards       cache lock shards (0 = sized from GOMAXPROCS)
//	-max-stale          serve expired pools this long while refreshing
//	-stale-while-revalidate
//	                    canonical name for -max-stale
//	-refresh-ahead      regenerate cached pools in the background at this
//	                    fraction of TTL (e.g. 0.8; 0 = miss-driven only)
//	-refresh-min-hits   popularity threshold for refresh-ahead
//	-trust-window       pool generations feeding each resolver's trust
//	                    score (0 = default 16, -1 = disable scoring)
//	-trust-min-score    quarantine resolvers scoring below this (0 =
//	                    observe only; 0.5 recommended)
//	-chaos-payload      interpose an adversary at the engine's transport
//	                    seam: replace | inflate | empty ("" = off)
//	-chaos-resolvers    comma-separated resolver indices the chaos
//	                    adversary compromises (default: 0)
//	-chaos-prob         per-exchange forge probability (default 1)
//	-chaos-seed         seed for all chaos randomness (0 uses seed 1)
//	-net-chaos-*        network-fault layer at the same seam: -net-chaos-drop,
//	                    -net-chaos-delay/-net-chaos-jitter,
//	                    -net-chaos-partition-every/-net-chaos-partition-for,
//	                    -net-chaos-churn-every/-net-chaos-churn-downtime,
//	                    -net-chaos-resolvers (default: all)
//	-version            print module version / VCS revision and exit
//	-hedge-delay        fixed straggler hedge delay (0 = adaptive)
//	-no-hedge           disable straggler hedging
//	-breaker-threshold  consecutive failures that open a resolver's breaker
//	-breaker-cooldown   how long an open breaker rejects attempts
//	-udp-batch          UDP datagrams per syscall (recvmmsg/sendmmsg on
//	                    Linux; 1 = portable one-per-syscall path)
//	-udp-sockets        SO_REUSEPORT UDP sockets sharing the serving port
//	                    (Linux; 0 = from NumCPU, 1 = single socket)
//	-max-tcp-conns      concurrent TCP connection bound
package main

import (
	"crypto/tls"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dohpool"
	"dohpool/internal/cliflags"
	"dohpool/internal/testpki"
)

// resolverList collects repeated -resolver flags.
type resolverList []string

func (r *resolverList) String() string { return fmt.Sprint(*r) }

func (r *resolverList) Set(v string) error {
	*r = append(*r, v)
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dohpoold:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dohpoold", flag.ContinueOnError)
	var resolvers resolverList
	// Library knobs come from the shared registry so every binary spells
	// them identically; only daemon-local concerns are declared here.
	groups := cliflags.RegisterAll(fs, cliflags.ServeOptions{AdminDefault: "127.0.0.1:8053"})
	var (
		listen      = fs.String("listen", "127.0.0.1:5353", "UDP+TCP listen address for the DNS front-end")
		tlsCAOut    = fs.String("tls-ca-out", "", "write the -tls-self-signed CA certificate (PEM) to this file so clients can trust it")
		statsOnExit = fs.Bool("stats-on-exit", false, "print cache and resolver-health stats at shutdown")
	)
	caFile := fs.String("ca", "", "PEM file with additional trusted CA (testbed interop)")
	showVersion := fs.Bool("version", false, "print the build's module version and VCS revision, then exit")
	fs.Var(&resolvers, "resolver", "DoH endpoint URL (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		version, revision := dohpool.BuildInfo()
		fmt.Printf("dohpoold %s (revision %s)\n", version, revision)
		return nil
	}
	if len(resolvers) == 0 {
		return fmt.Errorf("at least one -resolver is required (the security analysis wants >= 3)")
	}
	adminExplicit := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "admin" {
			adminExplicit = true
		}
	})
	if len(resolvers) < 3 {
		fmt.Fprintf(os.Stderr, "warning: only %d resolver(s); the paper's analysis assumes >= 3\n", len(resolvers))
	}

	var cfg dohpool.Config
	if err := groups.Apply(&cfg); err != nil {
		return err
	}
	if cfg.Chaos.Payload != "" {
		fmt.Fprintf(os.Stderr, "warning: CHAOS MODE ACTIVE (-chaos-payload=%s): forged answers are injected below the consensus engine; never run this on a production resolver path\n", cfg.Chaos.Payload)
	}
	if cfg.Chaos.Net.Active() {
		fmt.Fprintln(os.Stderr, "warning: NET CHAOS ACTIVE: network faults (drop/delay/partition/churn) are injected on the resolver paths; never run this on a production resolver path")
	}
	if (cfg.Serve.TLSSelfSigned || cfg.Serve.TLSCert != "" || cfg.Serve.TLSKey != "" || *tlsCAOut != "") && cfg.Serve.DoHAddr == "" && cfg.Serve.DoTAddr == "" {
		// Without an encrypted listener the TLS identity flags would be
		// silently ignored — surface the real missing input instead.
		return fmt.Errorf("TLS serving flags (-tls-self-signed/-tls-cert/-tls-key/-tls-ca-out) require -doh-addr or -dot-addr")
	}
	if *caFile != "" {
		pemBytes, err := os.ReadFile(*caFile)
		if err != nil {
			return fmt.Errorf("read -ca file: %w", err)
		}
		pool, err := testpki.PoolFromPEM(pemBytes)
		if err != nil {
			return fmt.Errorf("parse -ca file: %w", err)
		}
		cfg.TLSConfig = &tls.Config{RootCAs: pool, MinVersion: tls.VersionTLS12}
	}
	for i, url := range resolvers {
		cfg.Resolvers = append(cfg.Resolvers, dohpool.Resolver{
			Name: fmt.Sprintf("resolver-%d", i),
			URL:  url,
		})
	}
	client, err := dohpool.New(cfg)
	if errors.Is(err, dohpool.ErrAdminListen) && !adminExplicit {
		// The admin server is on by default; an instance that worked
		// before the default existed (or a second instance on the same
		// host) must not be broken by a port conflict it never asked
		// about. Only an explicit -admin failure is fatal.
		fmt.Fprintf(os.Stderr, "warning: default admin address %s unavailable (%v); observability disabled — pass -admin explicitly to make this fatal\n", cfg.Serve.AdminAddr, err)
		cfg.Serve.AdminAddr = ""
		client, err = dohpool.New(cfg)
	}
	if err != nil {
		return err
	}

	if *tlsCAOut != "" {
		caPEM := client.ServingCAPEM()
		if caPEM == nil {
			_ = client.Close()
			return fmt.Errorf("-tls-ca-out requires -tls-self-signed (there is no generated CA to write)")
		}
		if err := os.WriteFile(*tlsCAOut, caPEM, 0o644); err != nil {
			_ = client.Close()
			return fmt.Errorf("write -tls-ca-out: %w", err)
		}
		fmt.Printf("dohpoold: self-signed CA certificate written to %s (pass via dohquery -ca)\n", *tlsCAOut)
	}

	frontend, err := client.Serve(*listen)
	if err != nil {
		_ = client.Close()
		return err
	}
	fmt.Printf("dohpoold: serving consensus-backed DNS (UDP+TCP) on %s via %d DoH resolvers\n",
		frontend.Addr(), client.ResolverCount())
	if addr := frontend.DoHAddr(); addr != "" {
		fmt.Printf("dohpoold: serving DNS over HTTPS (RFC 8484) on https://%s/dns-query\n", addr)
	}
	if addr := frontend.DoTAddr(); addr != "" {
		fmt.Printf("dohpoold: serving DNS over TLS (RFC 7858) on %s\n", addr)
	}
	if addr := client.AdminAddr(); addr != "" {
		fmt.Printf("dohpoold: observability on http://%s (/metrics /healthz /poolz)\n", addr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	// Ordered shutdown: stop the frontend first — its Close waits for
	// every in-flight query to be answered — so the engine (and admin
	// server) those queries depend on only goes away once they are
	// flushed.
	_ = frontend.Close()
	if *statsOnExit {
		printStats(client, frontend)
	}
	return client.Close()
}

// printStats reports engine effectiveness at shutdown: served/failure
// counters, cache hit rate and per-resolver health.
func printStats(client *dohpool.Client, frontend *dohpool.Frontend) {
	fmt.Printf("dohpoold: shutting down after %d served queries (%d failures, %d shed)\n",
		frontend.Served(), frontend.Failures(), frontend.Dropped())
	cs := client.CacheStats()
	fmt.Printf("dohpoold: cache %d hits / %d misses (%.1f%% hit rate), %d evictions, %d expirations\n",
		cs.Hits, cs.Misses, 100*cs.HitRate(), cs.Evictions, cs.Expirations)
	trust := make(map[string]dohpool.ResolverTrust)
	for _, t := range client.ResolverTrust() {
		trust[t.Resolver.URL] = t
	}
	for _, h := range client.ResolverHealth() {
		state := "ok"
		if h.CircuitOpen {
			state = "circuit-open"
		}
		trustCol := ""
		if t, ok := trust[h.Resolver.URL]; ok {
			trustCol = fmt.Sprintf(" trust=%.2f", t.Score)
			if t.Distrusted {
				trustCol += " (distrusted)"
			}
		}
		fmt.Printf("dohpoold: resolver %-12s rtt=%-10v ok=%-6d fail=%-4d hedges=%-4d %s%s\n",
			h.Resolver.Name, h.EWMARTT.Round(time.Microsecond), h.Successes, h.Failures, h.Hedges, state, trustCol)
	}
}
