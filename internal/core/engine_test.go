package core

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dohpool/internal/dnswire"
)

// countingQuerier answers like staticQuerier but counts network exchanges
// per URL and can gate them open/closed to orchestrate races.
type countingQuerier struct {
	lists map[string][]netip.Addr
	ttl   uint32

	mu      sync.Mutex
	queries map[string]int
	total   atomic.Int64

	gate chan struct{} // when non-nil, every Query blocks until it closes
}

func newCountingQuerier(ttl uint32, lists map[string][]netip.Addr) *countingQuerier {
	return &countingQuerier{lists: lists, ttl: ttl, queries: make(map[string]int)}
}

func (c *countingQuerier) setTTL(ttl uint32) {
	c.mu.Lock()
	c.ttl = ttl
	c.mu.Unlock()
}

func (c *countingQuerier) Query(ctx context.Context, url, name string, typ dnswire.Type) (*dnswire.Message, error) {
	c.mu.Lock()
	c.queries[url]++
	gate := c.gate
	ttl := c.ttl
	c.mu.Unlock()
	c.total.Add(1)
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	query, err := dnswire.NewQuery(name, typ)
	if err != nil {
		return nil, err
	}
	resp := dnswire.NewResponse(query)
	for _, a := range c.lists[url] {
		if (typ == dnswire.TypeA) == a.Is4() {
			resp.Answers = append(resp.Answers, dnswire.AddressRecord(name, a, ttl))
		}
	}
	return resp, nil
}

func (c *countingQuerier) count(url string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queries[url]
}

func threeResolverLists() map[string][]netip.Addr {
	return map[string][]netip.Addr{
		"u0": addrs("192.0.2.1", "192.0.2.2"),
		"u1": addrs("192.0.2.3", "192.0.2.4"),
		"u2": addrs("192.0.2.5", "192.0.2.6"),
	}
}

func threeEndpoints() []Endpoint {
	return []Endpoint{
		{Name: "r0", URL: "u0"},
		{Name: "r1", URL: "u1"},
		{Name: "r2", URL: "u2"},
	}
}

func engineUnderTest(t *testing.T, q Querier, ecfg EngineConfig) *Engine {
	t.Helper()
	eng, err := NewEngine(Config{Resolvers: threeEndpoints(), Querier: q}, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	return eng
}

// TestEngineCachedLookupNoNetwork is the acceptance criterion: a repeated
// lookup for the same domain within TTL performs zero network exchanges.
func TestEngineCachedLookupNoNetwork(t *testing.T) {
	q := newCountingQuerier(300, threeResolverLists())
	eng := engineUnderTest(t, q, EngineConfig{})
	ctx := context.Background()

	first, err := eng.Lookup(ctx, "pool.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Addrs) != 6 {
		t.Fatalf("pool = %d addrs", len(first.Addrs))
	}
	baseline := q.total.Load()
	if baseline != 3 {
		t.Fatalf("first lookup used %d exchanges, want 3", baseline)
	}

	for i := 0; i < 10; i++ {
		p, err := eng.Lookup(ctx, "pool.test.", dnswire.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Addrs) != 6 {
			t.Fatalf("cached pool = %d addrs", len(p.Addrs))
		}
	}
	if got := q.total.Load(); got != baseline {
		t.Fatalf("cached lookups performed %d extra network exchanges", got-baseline)
	}
	if eng.NetworkRuns() != 1 {
		t.Errorf("NetworkRuns = %d, want 1", eng.NetworkRuns())
	}
	if st := eng.CacheStats(); st.Hits != 10 {
		t.Errorf("cache hits = %d, want 10", st.Hits)
	}
}

// TestEngineTTLExpiry drives the injectable clock past the answer TTL and
// expects exactly one fresh fan-out.
func TestEngineTTLExpiry(t *testing.T) {
	clk := struct {
		mu sync.Mutex
		t  time.Time
	}{t: time.Unix(1700000000, 0)}
	now := func() time.Time {
		clk.mu.Lock()
		defer clk.mu.Unlock()
		return clk.t
	}
	advance := func(d time.Duration) {
		clk.mu.Lock()
		clk.t = clk.t.Add(d)
		clk.mu.Unlock()
	}

	q := newCountingQuerier(30, threeResolverLists())
	eng := engineUnderTest(t, q, EngineConfig{Clock: now})
	ctx := context.Background()

	if _, err := eng.Lookup(ctx, "pool.test.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	advance(29 * time.Second)
	p, err := eng.Lookup(ctx, "pool.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if q.total.Load() != 3 {
		t.Fatalf("lookup inside TTL hit the network (%d exchanges)", q.total.Load())
	}
	if p.TTL != 1 {
		t.Errorf("aged pool TTL = %d, want 1", p.TTL)
	}

	advance(2 * time.Second) // 31s > 30s TTL
	if _, err := eng.Lookup(ctx, "pool.test.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if got := q.total.Load(); got != 6 {
		t.Fatalf("post-expiry exchanges = %d, want 6", got)
	}
	if eng.NetworkRuns() != 2 {
		t.Errorf("NetworkRuns = %d, want 2", eng.NetworkRuns())
	}
}

// TestEngineCoalescing proves singleflight: M concurrent lookups for the
// same key trigger exactly one upstream fan-out per resolver.
func TestEngineCoalescing(t *testing.T) {
	const m = 50
	q := newCountingQuerier(300, threeResolverLists())
	q.gate = make(chan struct{})
	eng := engineUnderTest(t, q, EngineConfig{})
	ctx := context.Background()

	var (
		wg      sync.WaitGroup
		started sync.WaitGroup
		errs    = make(chan error, m)
	)
	started.Add(m)
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			p, err := eng.Lookup(ctx, "pool.ntp.org.", dnswire.TypeA)
			if err == nil && len(p.Addrs) != 6 {
				err = errors.New("short pool")
			}
			errs <- err
		}()
	}
	started.Wait()
	time.Sleep(20 * time.Millisecond) // let every goroutine reach the flight group
	close(q.gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, url := range []string{"u0", "u1", "u2"} {
		if got := q.count(url); got != 1 {
			t.Errorf("resolver %s queried %d times, want 1 (coalescing broken)", url, got)
		}
	}
	if eng.NetworkRuns() != 1 {
		t.Errorf("NetworkRuns = %d, want 1", eng.NetworkRuns())
	}
}

// TestEngineStaleWhileRevalidate serves an expired pool inside MaxStale
// and refreshes in the background.
func TestEngineStaleWhileRevalidate(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }

	q := newCountingQuerier(10, threeResolverLists())
	eng := engineUnderTest(t, q, EngineConfig{Clock: clock, MaxStale: time.Minute})
	ctx := context.Background()

	if _, err := eng.Lookup(ctx, "pool.test.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	now = now.Add(30 * time.Second) // expired, within the 60s stale window
	mu.Unlock()

	p, err := eng.Lookup(ctx, "pool.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Addrs) != 6 {
		t.Fatalf("stale pool = %d addrs", len(p.Addrs))
	}
	if p.TTL != 1 {
		t.Errorf("stale pool TTL = %d, want 1", p.TTL)
	}
	if eng.StaleServes() != 1 {
		t.Errorf("StaleServes = %d, want 1", eng.StaleServes())
	}
	// The background refresh must run exactly one more fan-out.
	deadline := time.Now().Add(2 * time.Second)
	for q.total.Load() < 6 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := q.total.Load(); got != 6 {
		t.Fatalf("background refresh exchanges = %d, want 6", got)
	}
	// And the refreshed entry now serves without network.
	if _, err := eng.Lookup(ctx, "pool.test.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if got := q.total.Load(); got != 6 {
		t.Fatalf("post-refresh lookup hit the network (%d)", got)
	}
}

// TestEngineCacheDisabled verifies CacheSize < 0 restores per-call
// fan-out semantics.
func TestEngineCacheDisabled(t *testing.T) {
	q := newCountingQuerier(300, threeResolverLists())
	eng := engineUnderTest(t, q, EngineConfig{CacheSize: -1})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := eng.Lookup(ctx, "pool.test.", dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.total.Load(); got != 9 {
		t.Fatalf("uncached exchanges = %d, want 9", got)
	}
}

// TestEngineKeysAreDistinct checks A, AAAA and dual-stack results do not
// collide in the cache.
func TestEngineKeysAreDistinct(t *testing.T) {
	lists := map[string][]netip.Addr{
		"u0": addrs("192.0.2.1", "2001:db8::1"),
		"u1": addrs("192.0.2.2", "2001:db8::2"),
		"u2": addrs("192.0.2.3", "2001:db8::3"),
	}
	q := newCountingQuerier(300, lists)
	eng := engineUnderTest(t, q, EngineConfig{})
	ctx := context.Background()

	p4, err := eng.Lookup(ctx, "pool.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	p6, err := eng.Lookup(ctx, "pool.test.", dnswire.TypeAAAA)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := eng.LookupDualStack(ctx, "pool.test.")
	if err != nil {
		t.Fatal(err)
	}
	if len(p4.Addrs) != 3 || len(p6.Addrs) != 3 || len(pd.Addrs) != 6 {
		t.Fatalf("pools = %d/%d/%d addrs", len(p4.Addrs), len(p6.Addrs), len(pd.Addrs))
	}
	for _, a := range p4.Addrs {
		if !a.Is4() {
			t.Errorf("v6 address %v in A pool", a)
		}
	}
}

// TestEngineLookupErrorNotCached verifies a failed consensus run is not
// stored, so the next lookup retries upstream.
func TestEngineLookupErrorNotCached(t *testing.T) {
	q := newCountingQuerier(300, map[string][]netip.Addr{}) // empty answers → ErrEmptyAnswer
	eng := engineUnderTest(t, q, EngineConfig{})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := eng.Lookup(ctx, "pool.test.", dnswire.TypeA); !errors.Is(err, ErrEmptyAnswer) {
			t.Fatalf("err = %v", err)
		}
	}
	if got := q.total.Load(); got != 6 {
		t.Fatalf("failed lookups were cached (exchanges = %d, want 6)", got)
	}
}

// TestEngineCacheKeyCaseInsensitive: DNS names are case-insensitive
// (stubs may even randomize case, 0x20 encoding), so different casings
// must share one cache entry.
func TestEngineCacheKeyCaseInsensitive(t *testing.T) {
	q := newCountingQuerier(300, threeResolverLists())
	eng := engineUnderTest(t, q, EngineConfig{})
	ctx := context.Background()
	for _, name := range []string{"pool.test.", "POOL.test.", "PoOl.TeSt."} {
		if _, err := eng.Lookup(ctx, name, dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.total.Load(); got != 3 {
		t.Fatalf("case variants caused %d exchanges, want 3 (one fan-out)", got)
	}
}

// TestEngineZeroTTLUncacheable: a resolver answering TTL-0 records makes
// the whole pool uncacheable regardless of resolver order.
func TestEngineZeroTTLUncacheable(t *testing.T) {
	q := newCountingQuerier(0, threeResolverLists())
	eng := engineUnderTest(t, q, EngineConfig{})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		p, err := eng.Lookup(ctx, "pool.test.", dnswire.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		if p.TTL != 0 {
			t.Fatalf("TTL = %d, want 0", p.TTL)
		}
	}
	if got := q.total.Load(); got != 6 {
		t.Fatalf("TTL-0 pool was cached (exchanges = %d, want 6)", got)
	}
}

// TestEngineSnapshotIsolation verifies mutating a returned pool does not
// corrupt the cached copy.
func TestEngineSnapshotIsolation(t *testing.T) {
	q := newCountingQuerier(300, threeResolverLists())
	eng := engineUnderTest(t, q, EngineConfig{})
	ctx := context.Background()

	p1, err := eng.Lookup(ctx, "pool.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1.Addrs {
		p1.Addrs[i] = netip.MustParseAddr("198.18.0.66")
	}
	p2, err := eng.Lookup(ctx, "pool.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range p2.Addrs {
		if a == netip.MustParseAddr("198.18.0.66") {
			t.Fatal("cached pool shares storage with caller")
		}
	}
}

// TestEngineCapsInlineGenerations starts more distinct misses than
// maxInlineGenerations: exactly that many generations may reach the
// resolvers at once, the rest wait for a slot and complete once slots
// free up.
func TestEngineCapsInlineGenerations(t *testing.T) {
	const over = 5
	q := newBlockingQuerier(&staticQuerier{lists: threeResolverLists()})
	eng := engineUnderTest(t, q, EngineConfig{DisableHedging: true})
	errs := make(chan error, maxInlineGenerations+over)
	for i := 0; i < maxInlineGenerations+over; i++ {
		go func(i int) {
			_, err := eng.Lookup(context.Background(), fmt.Sprintf("blocked-%d.test.", i), dnswire.TypeA)
			errs <- err
		}(i)
	}
	waitFor(t, "the admitted generations to start", func() bool { return q.blockedNames() == maxInlineGenerations })
	waitFor(t, "every miss to lead a run", func() bool { return eng.NetworkRuns() == maxInlineGenerations+over })
	if got := q.blockedNames(); got != maxInlineGenerations {
		t.Fatalf("%d generations reached the resolvers at once, cap is %d", got, maxInlineGenerations)
	}
	close(q.release)
	for i := 0; i < maxInlineGenerations+over; i++ {
		if err := <-errs; err != nil {
			t.Errorf("lookup failed: %v", err)
		}
	}
	if got := q.blockedNames(); got != maxInlineGenerations+over {
		t.Errorf("%d names generated, want %d", got, maxInlineGenerations+over)
	}
}
