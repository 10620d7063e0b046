// Command benchstack is the benchmark's upstream: the Figure 1 testbed
// (authoritative servers and DoH resolvers on loopback) with simulated
// wide-area delay, so that "the slowest of N resolvers" and straggler
// hedging are real. It prints one JSON line describing itself and runs
// until its standard input closes — that is, until the runner stops it or
// dies.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dohpool/bench/upstream"
	"dohpool/internal/testbed"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchstack:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		extra = flag.Int("extra-domains", 16, "pool-<i> names beside the primary pool name")
		ttl   = flag.Uint("ttl", 150, "TTL of the pool records in seconds")
		fresh = flag.Bool("fresh-ttl", false, "resolvers do not cache, so every answer carries the zone's full TTL")
	)
	flag.Parse()
	tb, err := testbed.Start(testbed.Config{
		Resolvers: 3, AuthServers: 3, PoolSize: 8, MaxAnswers: 4,
		TTL: uint32(*ttl), ExtraPoolDomains: *extra,
		// Resolvers answer after 4, 5 and 6 ms. Every workload's numbers
		// were recorded against these delays.
		WANLatencyBase: 4 * time.Millisecond, WANLatencyStep: time.Millisecond,
		DisableResolverCache: *fresh,
	})
	if err != nil {
		return err
	}
	info := upstream.Info{CAPEM: string(tb.CA.CertPEM()), Domains: tb.PoolDomains()}
	for _, e := range tb.Endpoints {
		info.Endpoints = append(info.Endpoints, e.URL)
	}
	for _, a := range tb.BenignAddrs {
		info.Benign = append(info.Benign, a.String())
	}
	if err := json.NewEncoder(os.Stdout).Encode(info); err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, os.Stdin)
	// No orderly shutdown: nothing here holds state worth flushing, and
	// the runner is waiting.
	return nil
}
