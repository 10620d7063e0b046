package core

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"time"

	"dohpool/internal/dnswire"
)

// Generator errors.
var (
	// ErrNoResolvers reports a generator configured without resolvers.
	ErrNoResolvers = errors.New("no DoH resolvers configured")
	// ErrQuorum reports that fewer resolvers answered than the configured
	// minimum — proceeding would silently weaken the consensus guarantee.
	ErrQuorum = errors.New("not enough resolvers answered")
)

// Endpoint identifies one DoH resolver.
type Endpoint struct {
	// Name is a human-readable label ("dns.google", "resolver-2", …).
	Name string
	// URL is the RFC 8484 endpoint, e.g. "https://127.0.0.1:4431/dns-query".
	URL string
}

// Querier performs one DoH lookup; doh.Client satisfies it.
type Querier interface {
	Query(ctx context.Context, url, name string, typ dnswire.Type) (*dnswire.Message, error)
}

// DualStackPolicy selects how A and AAAA lookups combine (the paper's
// footnote 1: the honest-majority property can be required for the union
// or for each family individually).
type DualStackPolicy int

// Dual-stack policies.
const (
	// DualStackindividual runs Algorithm 1 per address family and
	// concatenates the two pools; each family individually carries the
	// honest-majority guarantee.
	DualStackIndividual DualStackPolicy = iota + 1
	// DualStackUnion merges each resolver's A and AAAA answers into one
	// list before truncation; the guarantee holds for the union.
	DualStackUnion
)

// DefaultPoolTTL is the advertised TTL (seconds) when upstream answers
// carry none — the conservative figure the frontend historically served.
const DefaultPoolTTL = 60

// ResolverResult records one resolver's contribution to a pool.
type ResolverResult struct {
	Endpoint Endpoint
	// Addrs is the untruncated answer list.
	Addrs []netip.Addr
	// Err is non-nil when the resolver failed or answered unusably.
	Err error
	// RTT is the exchange duration.
	RTT time.Duration
	// MinTTL is the smallest TTL across the resolver's answer records
	// (DefaultPoolTTL when the answer section carried none).
	MinTTL uint32
	// TrustScore is the resolver's trust score entering this generation:
	// 1.0 before any observation, 0 (the zero value, meaningless) when
	// trust tracking is disabled entirely.
	TrustScore float64
	// Distrusted reports that trust enforcement quarantined this
	// resolver's contribution: it answered (and counts for quorum), but
	// its addresses were excluded from truncation and the combined pool.
	Distrusted bool
}

// Pool is the outcome of one Algorithm 1 run.
type Pool struct {
	// Addrs is the combined pool: N truncated lists concatenated,
	// duplicates preserved.
	Addrs []netip.Addr
	// TruncateLength is K, the per-resolver contribution size.
	TruncateLength int
	// Results holds every resolver's raw contribution (including
	// failures) for diagnostics and experiments.
	Results []ResolverResult
	// Majority, when the majority filter is enabled, holds the addresses
	// confirmed by more than half of the answering resolvers.
	Majority []netip.Addr
	// TTL is the pool's advertised lifetime in seconds: the minimum answer
	// TTL across contributing resolvers. The consensus engine caches the
	// pool for exactly this long, and the DNS frontend serves it in answer
	// records.
	TTL uint32
}

// Responding returns how many resolvers contributed to the pool.
func (p *Pool) Responding() int {
	n := 0
	for _, r := range p.Results {
		if r.Err == nil {
			n++
		}
	}
	return n
}

// TrustedResponding returns how many responding resolvers' contributions
// actually entered the pool (Responding minus trust quarantines) — the
// trust-weighted quorum.
func (p *Pool) TrustedResponding() int {
	n := 0
	for _, r := range p.Results {
		if r.Err == nil && !r.Distrusted {
			n++
		}
	}
	return n
}

// DistrustedResolvers names the resolvers whose answers trust enforcement
// quarantined this generation.
func (p *Pool) DistrustedResolvers() []string {
	var names []string
	for _, r := range p.Results {
		if r.Distrusted {
			name := r.Endpoint.Name
			if name == "" {
				name = r.Endpoint.URL
			}
			names = append(names, name)
		}
	}
	return names
}

// Config configures a Generator.
type Config struct {
	// Resolvers is the list of distributed DoH resolvers (≥ 1; the
	// security analysis wants ≥ 3).
	Resolvers []Endpoint
	// Querier executes DoH lookups.
	Querier Querier
	// MinResolvers is the quorum: fewer successful answers than this
	// fails pool generation. 0 means all resolvers must answer.
	MinResolvers int
	// Sequential disables the concurrent fan-out (A3 ablation).
	Sequential bool
	// WithMajority additionally computes the majority-filtered address
	// set (for applications without Chronos-style tolerance).
	WithMajority bool
	// DualStack selects the A/AAAA combination policy for LookupDualStack.
	// Defaults to DualStackIndividual.
	DualStack DualStackPolicy
	// QueryTimeout bounds each individual resolver exchange. Zero uses
	// the querier's own default.
	QueryTimeout time.Duration
	// Trust, when non-nil, scores every resolver's conduct per generation
	// and — once the tracker enforces a minimum score — quarantines
	// persistently-outlying contributions (see TrustTracker). The engine
	// injects this; plain Generator use stays trust-free.
	Trust *TrustTracker
}

// Generator runs Algorithm 1 against a fixed resolver set.
type Generator struct {
	cfg Config
}

// NewGenerator validates cfg and builds a Generator.
func NewGenerator(cfg Config) (*Generator, error) {
	if len(cfg.Resolvers) == 0 {
		return nil, ErrNoResolvers
	}
	if cfg.Querier == nil {
		return nil, errors.New("generator needs a Querier")
	}
	if cfg.MinResolvers == 0 {
		cfg.MinResolvers = len(cfg.Resolvers)
	}
	if cfg.MinResolvers < 0 || cfg.MinResolvers > len(cfg.Resolvers) {
		return nil, fmt.Errorf("quorum %d out of range for %d resolvers",
			cfg.MinResolvers, len(cfg.Resolvers))
	}
	if cfg.DualStack == 0 {
		cfg.DualStack = DualStackIndividual
	}
	return &Generator{cfg: cfg}, nil
}

// ResolverCount returns N, the number of configured resolvers.
func (g *Generator) ResolverCount() int { return len(g.cfg.Resolvers) }

// ServeMajority reports whether consumers (the DNS frontend) should serve
// the majority-filtered set instead of the full pool.
func (g *Generator) ServeMajority() bool { return g.cfg.WithMajority }

// Lookup runs Algorithm 1 for (domain, typ): query every resolver,
// truncate all answer lists to the shortest, concatenate.
func (g *Generator) Lookup(ctx context.Context, domain string, typ dnswire.Type) (*Pool, error) {
	results := g.queryAll(ctx, domain, typ)
	return g.assemble(results)
}

// LookupDualStack runs Algorithm 1 for both A and AAAA per the configured
// dual-stack policy.
func (g *Generator) LookupDualStack(ctx context.Context, domain string) (*Pool, error) {
	v4 := g.queryAll(ctx, domain, dnswire.TypeA)
	v6 := g.queryAll(ctx, domain, dnswire.TypeAAAA)

	switch g.cfg.DualStack {
	case DualStackUnion:
		merged := make([]ResolverResult, len(v4))
		for i := range v4 {
			merged[i] = v4[i]
			if v4[i].Err != nil {
				// Family missing entirely: fall back to the other.
				merged[i] = v6[i]
				continue
			}
			if v6[i].Err == nil {
				merged[i].Addrs = append(append([]netip.Addr(nil), v4[i].Addrs...), v6[i].Addrs...)
				if v6[i].RTT > merged[i].RTT {
					merged[i].RTT = v6[i].RTT
				}
				if v6[i].MinTTL < merged[i].MinTTL {
					merged[i].MinTTL = v6[i].MinTTL
				}
			}
		}
		return g.assemble(merged)
	default: // DualStackIndividual
		p4, err4 := g.assemble(v4)
		p6, err6 := g.assemble(v6)
		switch {
		case err4 == nil && err6 == nil:
			combined := &Pool{
				Addrs:          append(append([]netip.Addr(nil), p4.Addrs...), p6.Addrs...),
				TruncateLength: p4.TruncateLength + p6.TruncateLength,
				Results:        append(append([]ResolverResult(nil), p4.Results...), p6.Results...),
				TTL:            p4.TTL,
			}
			if p6.TTL < combined.TTL {
				combined.TTL = p6.TTL
			}
			if g.cfg.WithMajority {
				combined.Majority = append(append([]netip.Addr(nil), p4.Majority...), p6.Majority...)
			}
			return combined, nil
		case err4 == nil:
			return p4, nil
		case err6 == nil:
			return p6, nil
		default:
			return nil, fmt.Errorf("dual-stack lookup: v4: %v; v6: %w", err4, err6)
		}
	}
}

// queryAll fans the query out to every resolver (concurrently unless
// Sequential) and collects per-resolver results.
func (g *Generator) queryAll(ctx context.Context, domain string, typ dnswire.Type) []ResolverResult {
	results := make([]ResolverResult, len(g.cfg.Resolvers))
	queryOne := func(i int) {
		ep := g.cfg.Resolvers[i]
		qctx := ctx
		var cancel context.CancelFunc
		if g.cfg.QueryTimeout > 0 {
			qctx, cancel = context.WithTimeout(ctx, g.cfg.QueryTimeout)
			defer cancel()
		}
		start := time.Now()
		resp, err := g.cfg.Querier.Query(qctx, ep.URL, domain, typ)
		rtt := time.Since(start)
		if err != nil {
			results[i] = ResolverResult{Endpoint: ep, Err: err, RTT: rtt}
			return
		}
		if resp.Header.RCode != dnswire.RCodeSuccess {
			results[i] = ResolverResult{
				Endpoint: ep,
				Err:      fmt.Errorf("resolver %s answered %v", ep.Name, resp.Header.RCode),
				RTT:      rtt,
			}
			return
		}
		results[i] = ResolverResult{
			Endpoint: ep,
			Addrs:    resp.AnswerAddrs(),
			RTT:      rtt,
			MinTTL:   resp.MinAnswerTTL(DefaultPoolTTL),
		}
	}

	if g.cfg.Sequential {
		for i := range results {
			queryOne(i)
		}
		return results
	}
	// The caller would only wait: it runs one exchange itself, and every
	// goroutine that runs one gets the stack an exchange needs up front.
	var wg sync.WaitGroup
	for i := 1; i < len(results); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			growstack()
			queryOne(i)
		}(i)
	}
	growstack()
	queryOne(0)
	wg.Wait()
	return results
}

// growstack grows the calling goroutine's stack to its working size while
// it is still a few frames deep. An exchange runs 15 to 20 frames deep in
// net/http, crypto/tls and idna; a goroutine that starts on 2 KB outgrows
// it down there, where the runtime has all those frames to unwind and
// adjust for the copy, on every cache miss. Nothing is retained: the stack
// goes back with the goroutine.
//
//go:noinline
func growstack() {
	// The runtime doubles the stack until this frame fits: 4 KB makes it
	// 8 KB, which an exchange does not outgrow. On miss_cold an 8 KB frame
	// saves no more CPU and costs resident memory; a 16 KB one (a 32 KB
	// stack, beyond the per-P stack cache) costs more than it saves.
	var frame [4 << 10]byte
	runtime.KeepAlive(&frame)
}

// assemble applies truncation and combination (Algorithm 1's second half)
// to the collected results, enforcing the quorum and — when a trust
// tracker with an enforced minimum score is wired in — quarantining
// persistently-outlying resolver contributions before truncation, so a
// distrusted minority can neither inflate the pool nor drag
// TruncateLength to zero.
func (g *Generator) assemble(results []ResolverResult) (*Pool, error) {
	tracker := g.cfg.Trust
	var majoritySet []netip.Addr
	majorityRan := false
	if tracker != nil {
		tracker.annotate(results)
		// Observation runs on every outcome — success, quorum failure,
		// empty-answer DoS — so a resolver that keeps breaking generation
		// still earns its score. Deferred so the majority set (computed
		// only on success) feeds the ejection signal when available;
		// majorityRan guards failed generations, where the vote never
		// happened and an empty set must not read as "everything ejected".
		defer func() { tracker.observeGeneration(results, majoritySet, majorityRan) }()
	}

	contributing := make([]int, 0, len(results))
	for i := range results {
		if results[i].Err == nil {
			contributing = append(contributing, i)
		}
	}
	if len(contributing) == 0 {
		return nil, fmt.Errorf("%w: %w", ErrNoResults, firstError(results))
	}
	// Quorum counts resolvers that answered, distrusted or not: a
	// quarantined resolver's data is rejected, but its liveness still
	// proves the fan-out reached it (and exclusion is separately gated on
	// trusted contributors keeping a strict majority).
	if len(contributing) < g.cfg.MinResolvers {
		return nil, fmt.Errorf("%d of %d needed: %w (first failure: %v)",
			len(contributing), g.cfg.MinResolvers, ErrQuorum, firstError(results))
	}

	kept := contributing
	if tracker != nil {
		if excluded := tracker.excludeSet(results); len(excluded) > 0 {
			for _, i := range excluded {
				results[i].Distrusted = true
			}
			kept = make([]int, 0, len(contributing)-len(excluded))
			for _, i := range contributing {
				if !results[i].Distrusted {
					kept = append(kept, i)
				}
			}
			tracker.recordFiltered("distrust")
			if TruncateLength(listsOf(results, contributing)) == 0 &&
				TruncateLength(listsOf(results, kept)) > 0 {
				// The quarantine specifically defeated the footnote-2
				// truncation DoS: an excluded empty answer would have
				// zeroed the pool.
				tracker.recordFiltered("truncation_dos")
			}
		}
	}

	lists := listsOf(results, kept)
	pool := &Pool{Results: results, TTL: minResultTTL(results)}
	pool.TruncateLength = TruncateLength(lists)
	if pool.TruncateLength == 0 {
		return nil, ErrEmptyAnswer
	}
	pool.Addrs = Combine(Truncate(lists, pool.TruncateLength))
	if g.cfg.WithMajority {
		pool.Majority = MajorityFilter(lists)
		majoritySet = pool.Majority
		majorityRan = true
	}
	return pool, nil
}

// listsOf projects the answer lists of the results at the given indices.
func listsOf(results []ResolverResult, idx []int) [][]netip.Addr {
	lists := make([][]netip.Addr, 0, len(idx))
	for _, i := range idx {
		lists = append(lists, results[i].Addrs)
	}
	return lists
}

// minResultTTL returns the smallest MinTTL among successful, trusted
// results (the pool is only as fresh as its most impatient contributor; a
// quarantined resolver must not force an uncacheable TTL-0 pool). A
// genuine TTL-0 contribution yields 0 — uncacheable — rather than being
// treated as "unset".
func minResultTTL(results []ResolverResult) uint32 {
	min, found := uint32(0), false
	for _, r := range results {
		if r.Err != nil || r.Distrusted {
			continue
		}
		if !found || r.MinTTL < min {
			min = r.MinTTL
			found = true
		}
	}
	return min
}

func firstError(results []ResolverResult) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}
