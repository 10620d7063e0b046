// Package upstream starts and describes the benchmark's upstream process,
// cmd/benchstack: three DoH resolvers with 4, 5 and 6 ms of added delay in
// front of three authoritative servers, all on loopback.
package upstream

import (
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"time"

	"dohpool/bench/child"
)

// Info is the one line benchstack prints once it serves.
type Info struct {
	// Endpoints are the DoH resolvers' URLs.
	Endpoints []string `json:"endpoints"`
	// CAPEM is the certificate the resolvers' TLS identities chain to.
	CAPEM string `json:"ca_pem"`
	// Domains are the names the zone serves.
	Domains []string `json:"domains"`
	// Benign are the only addresses a correct answer may contain.
	Benign []string `json:"benign"`
}

// BenignAddrs returns Benign in the validator's form.
func (i *Info) BenignAddrs() ([][4]byte, error) {
	out := make([][4]byte, len(i.Benign))
	for n, s := range i.Benign {
		a, err := netip.ParseAddr(s)
		if err != nil || !a.Is4() {
			return nil, fmt.Errorf("upstream: benign address %q is not IPv4", s)
		}
		out[n] = a.As4()
	}
	return out, nil
}

// Upstream is a running benchstack.
type Upstream struct {
	Info
	proc *child.Proc
}

// Start runs the benchstack binary with a zone of 1+extra names at the
// given TTL and waits for its description. With freshTTL the resolvers do
// not cache: every answer carries the full TTL instead of what is left of
// it in a resolver's cache.
func Start(bin string, logTo io.Writer, extra int, ttl uint32, freshTTL bool) (*Upstream, error) {
	args := []string{"-extra-domains", strconv.Itoa(extra), "-ttl", strconv.FormatUint(uint64(ttl), 10)}
	if freshTTL {
		args = append(args, "-fresh-ttl")
	}
	proc, err := child.Start(logTo, nil, bin, args...)
	if err != nil {
		return nil, err
	}
	u := &Upstream{proc: proc}
	line := make(chan error, 1)
	go func() { line <- json.NewDecoder(proc.Stdout).Decode(&u.Info) }()
	select {
	case err = <-line:
	case <-time.After(30 * time.Second):
		err = fmt.Errorf("no description within 30 s")
	}
	if err == nil && (len(u.Endpoints) == 0 || len(u.Domains) != 1+extra) {
		err = fmt.Errorf("description has %d endpoints and %d domains, want %d domains", len(u.Endpoints), len(u.Domains), 1+extra)
	}
	if err != nil {
		proc.Stop(0)
		return nil, fmt.Errorf("upstream: %w", err)
	}
	return u, nil
}

// Stop ends the process and waits for it.
func (u *Upstream) Stop() { u.proc.Stop(2 * time.Second) }
