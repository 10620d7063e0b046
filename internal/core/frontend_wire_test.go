package core

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"dohpool/internal/dnswire"
	"dohpool/internal/metrics"
)

// swapQuerier is a staticQuerier whose answer lists can be replaced
// between generations (for invalidation tests), guarded for the
// engine's background refresh goroutines.
type swapQuerier struct {
	mu    sync.Mutex
	lists map[string][]netip.Addr
}

func (s *swapQuerier) Query(_ context.Context, url, name string, typ dnswire.Type) (*dnswire.Message, error) {
	query, err := dnswire.NewQuery(name, typ)
	if err != nil {
		return nil, err
	}
	resp := dnswire.NewResponse(query)
	s.mu.Lock()
	list := s.lists[url]
	s.mu.Unlock()
	for _, a := range list {
		if (typ == dnswire.TypeA) == a.Is4() {
			resp.Answers = append(resp.Answers, dnswire.AddressRecord(name, a, 60))
		}
	}
	return resp, nil
}

func (s *swapQuerier) swap(lists map[string][]netip.Addr) {
	s.mu.Lock()
	s.lists = lists
	s.mu.Unlock()
}

// manyAddrs generates n distinct IPv4 addresses offset into 10.x space.
func manyAddrs(base, n int) []netip.Addr {
	out := make([]netip.Addr, 0, n)
	for i := 0; i < n; i++ {
		v := base + i
		out = append(out, netip.MustParseAddr(fmt.Sprintf("10.%d.%d.%d", v>>16&0xFF, v>>8&0xFF, v&0xFF)))
	}
	return out
}

// slowOnlyBackend hides the engine's WireLookup so a frontend over it
// always takes the decode → respond → encode path: the differential
// oracle for fast-path byte equality.
type slowOnlyBackend struct{ eng *Engine }

func (s slowOnlyBackend) Lookup(ctx context.Context, domain string, typ dnswire.Type) (*Pool, error) {
	return s.eng.Lookup(ctx, domain, typ)
}
func (s slowOnlyBackend) ServeMajority() bool { return s.eng.ServeMajority() }

// wireEngineUnderTest builds an engine over q with a fake clock and a
// metrics registry, plus a frontend serving it.
func wireEngineUnderTest(t testing.TB, q Querier, clk *testClock, ecfg EngineConfig) (*Engine, *Frontend) {
	t.Helper()
	ecfg.Clock = clk.now
	ecfg.DisableHedging = true
	eng, err := NewEngine(Config{
		Resolvers: []Endpoint{
			{Name: "r0", URL: "u0"},
			{Name: "r1", URL: "u1"},
			{Name: "r2", URL: "u2"},
		},
		Querier: q,
	}, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	fe, err := NewFrontendWithConfig("127.0.0.1:0", eng, FrontendConfig{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fe.Close() })
	return eng, fe
}

// rawQueryBytes encodes a query with explicit ID/RD/CD and an optional
// EDNS OPT advertising size (0 = no OPT).
func rawQueryBytes(t testing.TB, id uint16, name string, typ dnswire.Type, edns int, rd, cd bool) []byte {
	t.Helper()
	m := &dnswire.Message{
		Header: dnswire.Header{
			ID:               id,
			Opcode:           dnswire.OpcodeQuery,
			RecursionDesired: rd,
			CheckingDisabled: cd,
		},
		Questions: []dnswire.Question{{Name: name, Type: typ, Class: dnswire.ClassINET}},
	}
	if edns > 0 {
		m.SetEDNS(uint16(edns))
	}
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// rawUDPExchange sends query bytes over a connected UDP socket and
// returns the raw response bytes.
func rawUDPExchange(t *testing.T, addr string, query []byte) []byte {
	t.Helper()
	c, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(3 * time.Second))
	if _, err := c.Write(query); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, dnswire.MaxMessageSize)
	n, err := c.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	return buf[:n]
}

// packetFor wraps raw query bytes in a pooled packet for direct
// answerWire calls.
func packetFor(wire []byte) *udpPacket {
	p := newUDPPacket()
	copy(p.buf[:], wire)
	p.dg.N = len(wire)
	return p
}

// TestWireFastPathDifferential is the acceptance test for the wire
// cache: for every EDNS size bucket, the fast path's bytes must be
// identical to the slow path's for the same query — same ID, same
// flags, same truncation decision, same TTLs (the fake clock pins the
// age at zero so even TTL aging matches exactly).
func TestWireFastPathDifferential(t *testing.T) {
	q := &swapQuerier{lists: map[string][]netip.Addr{
		"u0": manyAddrs(0, 40),
		"u1": manyAddrs(1000, 40),
		"u2": manyAddrs(2000, 40),
	}}
	clk := newTestClock()
	eng, fastFE := wireEngineUnderTest(t, q, clk, EngineConfig{})
	slowFE, err := NewFrontendWithConfig("127.0.0.1:0", slowOnlyBackend{eng}, FrontendConfig{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer slowFE.Close()
	if slowFE.wire != nil {
		t.Fatal("slow frontend unexpectedly sees the wire cache")
	}

	// Warm: the first query generates the pool and populates the wire
	// cache; afterwards the fast path must be live.
	warm := rawQueryBytes(t, 1, "pool.test.", dnswire.TypeA, 4096, true, false)
	if resp := rawUDPExchange(t, fastFE.Addr(), warm); resp[3]&0x0F != 0 {
		t.Fatalf("warm query rcode = %d", resp[3]&0x0F)
	}
	if !fastFE.answerWire(packetFor(warm)) {
		t.Fatal("fast path not serving after warm-up")
	}

	full, _, ok := eng.WireLookup([]byte("pool.test.|1"), false)
	if !ok {
		t.Fatal("no wire entry after warm-up")
	}
	if len(full.Full) <= 1232 || len(full.Full) > 4096 {
		t.Fatalf("test pool encodes to %d bytes; want in (1232, 4096] to straddle the buckets", len(full.Full))
	}

	cases := []struct {
		name    string
		edns    int
		rd, cd  bool
		wantTC  bool
		wantAns int
	}{
		{"no-edns-512", 0, true, false, true, 0},
		{"edns-512", 512, false, true, true, 0},
		{"edns-1232", 1232, true, true, true, 0},
		{"edns-4096", 4096, false, false, false, 120},
		{"edns-exact", len(full.Full), true, false, false, 120},
		{"edns-one-short", len(full.Full) - 1, true, false, true, 0},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			query := rawQueryBytes(t, uint16(0x2000+i), "pool.test.", dnswire.TypeA, tc.edns, tc.rd, tc.cd)
			fast := rawUDPExchange(t, fastFE.Addr(), query)
			slow := rawUDPExchange(t, slowFE.Addr(), query)
			if !bytes.Equal(fast, slow) {
				t.Fatalf("fast path bytes differ from slow path:\nfast %x\nslow %x", fast, slow)
			}
			if gotTC := fast[2]&0x02 != 0; gotTC != tc.wantTC {
				t.Errorf("TC = %v, want %v", gotTC, tc.wantTC)
			}
			if gotAns := int(fast[6])<<8 | int(fast[7]); gotAns != tc.wantAns {
				t.Errorf("ancount = %d, want %d", gotAns, tc.wantAns)
			}
			if fast[0] != query[0] || fast[1] != query[1] {
				t.Error("response ID does not echo the query ID")
			}
			if gotRD := fast[2]&0x01 != 0; gotRD != tc.rd {
				t.Errorf("RD echo = %v, want %v", gotRD, tc.rd)
			}
			if gotCD := fast[3]&0x10 != 0; gotCD != tc.cd {
				t.Errorf("CD echo = %v, want %v", gotCD, tc.cd)
			}
		})
	}
}

// TestWireFastPathConcurrentIDs hammers one warmed name from concurrent
// clients with disjoint ID ranges: every response must carry exactly
// its own query's ID (the patch writes into per-packet buffers, so
// cross-talk would surface as a foreign ID or a torn answer).
func TestWireFastPathConcurrentIDs(t *testing.T) {
	q := &swapQuerier{lists: map[string][]netip.Addr{
		"u0": manyAddrs(0, 2), "u1": manyAddrs(100, 2), "u2": manyAddrs(200, 2),
	}}
	clk := newTestClock()
	_, fe := wireEngineUnderTest(t, q, clk, EngineConfig{})
	warm := rawQueryBytes(t, 1, "pool.test.", dnswire.TypeA, 0, true, false)
	rawUDPExchange(t, fe.Addr(), warm)

	const clients, perClient = 8, 50
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("udp", fe.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			buf := make([]byte, 4096)
			for i := 0; i < perClient; i++ {
				id := uint16(c<<8 | i + 2)
				query := rawQueryBytes(t, id, "pool.test.", dnswire.TypeA, 0, true, false)
				_ = conn.SetDeadline(time.Now().Add(3 * time.Second))
				if _, err := conn.Write(query); err != nil {
					errs <- err
					return
				}
				n, err := conn.Read(buf)
				if err != nil {
					errs <- err
					return
				}
				if n < 12 || uint16(buf[0])<<8|uint16(buf[1]) != id {
					errs <- fmt.Errorf("client %d query %d: response ID %x, want %x", c, i, buf[:2], id)
					return
				}
				if buf[2]&0x80 == 0 || int(buf[6])<<8|int(buf[7]) != 6 {
					errs <- fmt.Errorf("client %d query %d: malformed answer n=%d hdr=%x", c, i, n, buf[:12])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWireFastPathInvalidationOnRefresh drives a background
// regeneration (the stale-serve revalidation path, which shares the
// cache-publish code with refresh-ahead) and asserts the wire cache
// never serves the superseded generation's bytes afterwards.
func TestWireFastPathInvalidationOnRefresh(t *testing.T) {
	oldAddrs := map[string][]netip.Addr{
		"u0": manyAddrs(0, 2), "u1": manyAddrs(0, 2), "u2": manyAddrs(0, 2),
	}
	newAddrs := map[string][]netip.Addr{
		"u0": manyAddrs(5000, 2), "u1": manyAddrs(5000, 2), "u2": manyAddrs(5000, 2),
	}
	q := &swapQuerier{lists: oldAddrs}
	clk := newTestClock()
	eng, fe := wireEngineUnderTest(t, q, clk, EngineConfig{MaxStale: time.Hour})
	warm := rawQueryBytes(t, 1, "pool.test.", dnswire.TypeA, 0, true, false)
	rawUDPExchange(t, fe.Addr(), warm)
	oldEntry, _, ok := eng.WireLookup([]byte("pool.test.|1"), false)
	if !ok {
		t.Fatal("no wire entry after warm-up")
	}

	// Expire the pool into its stale window and switch the resolvers'
	// answers; the next lookup serves stale and launches a background
	// revalidation that must republish both caches.
	q.swap(newAddrs)
	clk.advance(61 * time.Second)
	if _, err := eng.Lookup(context.Background(), "pool.test.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		en, _, ok := eng.WireLookup([]byte("pool.test.|1"), false)
		if ok && !bytes.Equal(en.Full, oldEntry.Full) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("wire entry not replaced by background refresh")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp := rawUDPExchange(t, fe.Addr(), rawQueryBytes(t, 7, "pool.test.", dnswire.TypeA, 0, true, false))
	if bytes.Contains(resp, []byte{10, 0, 0, 0}) {
		t.Error("response still carries a first-generation address")
	}
	if !bytes.Contains(resp, []byte{10, 0, 19, 136}) { // 5000 = 0x1388 → 10.0.19.136
		t.Errorf("response does not carry the regenerated pool: %x", resp)
	}
}

// TestAnswerWireRejects feeds the fast path queries it must hand to the
// strict slow path, plus the 0x20-randomized positive case it must
// normalize and serve.
func TestAnswerWireRejects(t *testing.T) {
	q := &swapQuerier{lists: map[string][]netip.Addr{
		"u0": manyAddrs(0, 2), "u1": manyAddrs(0, 2), "u2": manyAddrs(0, 2),
	}}
	clk := newTestClock()
	_, fe := wireEngineUnderTest(t, q, clk, EngineConfig{})
	rawUDPExchange(t, fe.Addr(), rawQueryBytes(t, 1, "pool.test.", dnswire.TypeA, 0, true, false))

	base := rawQueryBytes(t, 2, "pool.test.", dnswire.TypeA, 0, true, false)
	if !fe.answerWire(packetFor(base)) {
		t.Fatal("baseline query not served by the fast path")
	}

	mutate := func(fn func(b []byte) []byte) *udpPacket {
		b := append([]byte(nil), base...)
		return packetFor(fn(b))
	}
	rejects := map[string]*udpPacket{
		"too-short":    packetFor(base[:11]),
		"qr-set":       mutate(func(b []byte) []byte { b[2] |= 0x80; return b }),
		"opcode":       mutate(func(b []byte) []byte { b[2] |= 0x08; return b }), // IQUERY
		"qdcount-2":    mutate(func(b []byte) []byte { b[5] = 2; return b }),
		"ancount-1":    mutate(func(b []byte) []byte { b[7] = 1; return b }),
		"arcount-2":    mutate(func(b []byte) []byte { b[11] = 2; return b }),
		"pointer-name": mutate(func(b []byte) []byte { b[12] = 0xC0; return b }),
		"bad-label":    mutate(func(b []byte) []byte { b[13] = ' '; return b }),
		"qclass-ch":    mutate(func(b []byte) []byte { b[len(b)-1] = 3; return b }),
		"qtype-txt":    mutate(func(b []byte) []byte { b[len(b)-3] = 16; return b }),
		"trailing":     mutate(func(b []byte) []byte { return append(b, 0) }),
		"unknown-name": packetFor(rawQueryBytes(t, 3, "cold.test.", dnswire.TypeA, 0, true, false)),
	}
	for name, pkt := range rejects {
		if fe.answerWire(pkt) {
			t.Errorf("%s: fast path served a query it must reject", name)
		}
	}

	// Case-randomized spelling of a warmed name must normalize to the
	// same key and serve.
	randomized := mutate(func(b []byte) []byte {
		for i := 13; i < 13+4; i++ { // "pool" label bytes
			b[i] -= 'a' - 'A'
		}
		return b
	})
	if !fe.answerWire(randomized) {
		t.Error("0x20-randomized query not served by the fast path")
	}
}

// TestFrontendWriteErrorMetric asserts the per-transport write-error
// counter family is registered and exported for every plaintext and DoT
// transport label.
func TestFrontendWriteErrorMetric(t *testing.T) {
	q := &swapQuerier{lists: map[string][]netip.Addr{
		"u0": manyAddrs(0, 2), "u1": manyAddrs(0, 2), "u2": manyAddrs(0, 2),
	}}
	clk := newTestClock()
	reg := metrics.New()
	ecfg := EngineConfig{Metrics: reg, Clock: clk.now, DisableHedging: true}
	eng, err := NewEngine(Config{
		Resolvers: []Endpoint{{Name: "r0", URL: "u0"}, {Name: "r1", URL: "u1"}, {Name: "r2", URL: "u2"}},
		Querier:   q,
	}, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	fe, err := NewFrontendWithConfig("127.0.0.1:0", eng, FrontendConfig{Timeout: time.Second, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	expo := sb.String()
	for _, want := range []string{
		MetricFrontendWriteErrors + `{proto="udp"}`,
		MetricFrontendWriteErrors + `{proto="tcp"}`,
		MetricWireCacheHits,
		MetricWireCacheMisses,
		MetricWireCacheEntries,
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestWireFastPathTTLAging pins the wire cache's TTL patch to the slow
// path's aging rule: elapsed whole seconds are subtracted, flooring at
// 1 while the entry still serves.
func TestWireFastPathTTLAging(t *testing.T) {
	q := &swapQuerier{lists: map[string][]netip.Addr{
		"u0": manyAddrs(0, 2), "u1": manyAddrs(0, 2), "u2": manyAddrs(0, 2),
	}}
	clk := newTestClock()
	_, fe := wireEngineUnderTest(t, q, clk, EngineConfig{})
	rawUDPExchange(t, fe.Addr(), rawQueryBytes(t, 1, "pool.test.", dnswire.TypeA, 0, true, false))

	readTTL := func(resp []byte) uint32 {
		m, err := dnswire.Decode(resp)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Answers) == 0 {
			t.Fatal("no answers")
		}
		return m.Answers[0].TTL
	}
	resp := rawUDPExchange(t, fe.Addr(), rawQueryBytes(t, 2, "pool.test.", dnswire.TypeA, 0, true, false))
	if got := readTTL(resp); got != 60 {
		t.Fatalf("fresh TTL = %d, want 60", got)
	}
	clk.advance(25 * time.Second)
	resp = rawUDPExchange(t, fe.Addr(), rawQueryBytes(t, 3, "pool.test.", dnswire.TypeA, 0, true, false))
	if got := readTTL(resp); got != 35 {
		t.Fatalf("aged TTL = %d, want 35", got)
	}
}

// TestParkedAnswerDifferential extends the byte-equality table to the
// miss path: a query that arrives before its pool exists waits on the
// generation in a goroutine of its own, and what it finally receives
// must be the bytes handleUDP has always produced for that query and
// pool — slowServeWire is that reference — for every EDNS bucket and
// RD/CD combination, including the TC rule for a pool that outgrows 512
// and 1232 octets.
func TestParkedAnswerDifferential(t *testing.T) {
	q := newBlockingQuerier(bigPoolQuerier())
	clk := newTestClock()
	eng, fe := wireEngineUnderTest(t, q, clk, EngineConfig{})
	oracle, err := NewFrontendWithConfig("127.0.0.1:0", slowOnlyBackend{eng}, FrontendConfig{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	cases := []struct {
		name    string
		edns    int
		rd, cd  bool
		wantTC  bool
		wantAns int
	}{
		{"no-edns", 0, true, false, true, 0},
		{"no-edns-cd", 0, false, true, true, 0},
		{"edns-512", 512, true, true, true, 0},
		{"edns-1232", 1232, false, false, true, 0},
		{"edns-4096", 4096, true, false, false, 120},
		{"edns-4096-cd", 4096, true, true, false, 120},
	}
	conn, err := net.Dial("udp", fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	queries := make(map[uint16][]byte)
	for i, tc := range cases {
		id := uint16(0x3000 + i)
		// A name of its own per case, so that every case is a miss.
		queries[id] = rawQueryBytes(t, id, fmt.Sprintf("blocked-%d.test.", i), dnswire.TypeA, tc.edns, tc.rd, tc.cd)
		if _, err := conn.Write(queries[id]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every case to wait on its generation", func() bool { return q.blockedNames() == len(cases) })
	close(q.release)

	buf := make([]byte, dnswire.MaxMessageSize)
	_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	answers := make(map[uint16][]byte)
	for range cases {
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		answers[uint16(buf[0])<<8|uint16(buf[1])] = append([]byte(nil), buf[:n]...)
	}
	for i, tc := range cases {
		id := uint16(0x3000 + i)
		got, ok := answers[id]
		if !ok {
			t.Errorf("%s: no answer carries the query's ID", tc.name)
			continue
		}
		want, ok := slowServeWire(oracle, queries[id])
		if !ok {
			t.Fatalf("%s: reference path produced no answer", tc.name)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: parked answer differs from handleUDP's:\ngot  %x\nwant %x", tc.name, got, want)
		}
		if gotTC := got[2]&0x02 != 0; gotTC != tc.wantTC {
			t.Errorf("%s: TC = %v, want %v", tc.name, gotTC, tc.wantTC)
		}
		if gotAns := int(got[6])<<8 | int(got[7]); gotAns != tc.wantAns {
			t.Errorf("%s: ancount = %d, want %d", tc.name, gotAns, tc.wantAns)
		}
	}
	// The answers above were read out of the wire cache once their
	// generations had published: that read is neither a second lookup nor
	// a fast-path hit. (The oracle's lookups were pool-cache hits.)
	if got := eng.NetworkRuns(); got != uint64(len(cases)) {
		t.Errorf("%d generations for %d names", got, len(cases))
	}
	if st := eng.wire.Stats(); st.Hits != 0 || st.Misses != uint64(len(cases)) {
		t.Errorf("wire cache hits %d misses %d, want 0 and %d: one fast-path miss per query and nothing else", st.Hits, st.Misses, len(cases))
	}
}

// TestParkedWaitersCoalesce parks N datagrams for one name: they must
// cause exactly one generation and receive N answers, each under its
// own ID.
func TestParkedWaitersCoalesce(t *testing.T) {
	const waiters = 6
	q := newCountingQuerier(60, threeResolverLists())
	q.gate = make(chan struct{})
	clk := newTestClock()
	eng, fe := wireEngineUnderTest(t, q, clk, EngineConfig{})
	c := dialUDPClient(t, fe.Addr())
	for i := 0; i < waiters; i++ {
		c.send(uint16(0x4000+i), "pool.test.")
	}
	waitFor(t, "every waiter to be parked", func() bool { return fe.parked.Load() == waiters })
	close(q.gate)

	count, rcode := c.collect(waiters, 3*time.Second)
	for i := 0; i < waiters; i++ {
		id := uint16(0x4000 + i)
		if count[id] != 1 || rcode[id] != int(dnswire.RCodeSuccess) {
			t.Errorf("ID %#x: %d answers (rcode %d), want exactly 1 NOERROR", id, count[id], rcode[id])
		}
	}
	if got := eng.NetworkRuns(); got != 1 {
		t.Errorf("%d waiters caused %d generations, want 1", waiters, got)
	}
	if got := q.total.Load(); got != 3 {
		t.Errorf("%d waiters caused %d upstream exchanges, want 3", waiters, got)
	}
}

// TestWireEntryRestoredAfterEviction is the regression test for the
// wire cache's eviction: it drops an arbitrary entry from a full shard
// while the pool cache keeps strict LRU order, so a hot name that is
// read between cold inserts keeps its pool and sooner or later loses
// its wire entry. The fast path must then rebuild the entry from the
// pool and serve the name again, with the bytes the slow path produces
// and a TTL that went on ageing from the original generation.
func TestWireEntryRestoredAfterEviction(t *testing.T) {
	const capacity = 4
	q := &swapQuerier{lists: map[string][]netip.Addr{
		"u0": manyAddrs(0, 2), "u1": manyAddrs(100, 2), "u2": manyAddrs(200, 2),
	}}
	clk := newTestClock()
	eng, fe := wireEngineUnderTest(t, q, clk, EngineConfig{CacheSize: capacity, CacheShards: 1})
	oracle, err := NewFrontendWithConfig("127.0.0.1:0", slowOnlyBackend{eng}, FrontendConfig{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	answerTTL := func(resp []byte) uint32 {
		m, err := dnswire.Decode(resp)
		if err != nil || len(m.Answers) == 0 {
			t.Fatalf("undecodable or empty answer %x: %v", resp, err)
		}
		return m.Answers[0].TTL
	}

	hot := rawQueryBytes(t, 7, "hot.test.", dnswire.TypeA, 0, true, false)
	rawUDPExchange(t, fe.Addr(), hot)
	clk.advance(7 * time.Second)
	ttlBefore := answerTTL(rawUDPExchange(t, fe.Addr(), hot))

	// 60 inserts into a shard of 4: the hot entry survives them all with
	// probability (3/4)^57, about 1e-7.
	restored := 0
	for i := 0; i < 60; i++ {
		rawUDPExchange(t, fe.Addr(), rawQueryBytes(t, 8, fmt.Sprintf("cold-%d.test.", i), dnswire.TypeA, 0, true, false))
		hits := eng.wire.Stats().Hits
		first := rawUDPExchange(t, fe.Addr(), hot)
		if eng.wire.Stats().Hits == hits {
			restored++
			if got := answerTTL(first); got > ttlBefore {
				t.Fatalf("restored entry serves TTL %d, above the %d served before the eviction", got, ttlBefore)
			}
		}
		hits = eng.wire.Stats().Hits
		rawUDPExchange(t, fe.Addr(), hot)
		if got := eng.wire.Stats().Hits - hits; got != 1 {
			t.Fatalf("after cold insert %d the hot name is off the fast path: wire hits moved by %d, want 1", i, got)
		}
	}
	if restored == 0 {
		t.Fatal("the hot name's wire entry was never evicted; the test did not reach the restore")
	}
	if got := eng.NetworkRuns(); got != 61 {
		t.Errorf("NetworkRuns = %d, want 61: the hot name must not have been regenerated", got)
	}

	clk.advance(3 * time.Second)
	fast := rawUDPExchange(t, fe.Addr(), hot)
	slow, ok := slowServeWire(oracle, hot)
	if !ok || !bytes.Equal(fast, slow) {
		t.Fatalf("restored fast path differs from the slow path:\nfast %x\nslow %x", fast, slow)
	}
	if got, want := answerTTL(fast), ttlBefore-3; got != want {
		t.Errorf("TTL = %d after 3 more seconds, want %d", got, want)
	}
}
