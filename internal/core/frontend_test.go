package core

import (
	"context"
	"crypto/tls"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"dohpool/internal/dnswire"
	"dohpool/internal/doh"
	"dohpool/internal/metrics"
	"dohpool/internal/testpki"
	"dohpool/internal/transport"
)

// staticQuerier answers every resolver URL with a fixed per-URL list.
type staticQuerier struct {
	lists map[string][]netip.Addr
	fail  bool
}

func (s *staticQuerier) Query(_ context.Context, url, name string, typ dnswire.Type) (*dnswire.Message, error) {
	query, err := dnswire.NewQuery(name, typ)
	if err != nil {
		return nil, err
	}
	resp := dnswire.NewResponse(query)
	if s.fail {
		resp.Header.RCode = dnswire.RCodeServFail
		return resp, nil
	}
	for _, a := range s.lists[url] {
		if (typ == dnswire.TypeA) == a.Is4() {
			resp.Answers = append(resp.Answers, dnswire.AddressRecord(name, a, 60))
		}
	}
	return resp, nil
}

func frontendUnderTest(t *testing.T, q Querier, withMajority bool) *Frontend {
	t.Helper()
	gen, err := NewGenerator(Config{
		Resolvers: []Endpoint{
			{Name: "r0", URL: "u0"},
			{Name: "r1", URL: "u1"},
			{Name: "r2", URL: "u2"},
		},
		Querier:      q,
		WithMajority: withMajority,
	})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontend("127.0.0.1:0", gen, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fe.Close() })
	return fe
}

func frontendQuery(t *testing.T, addr, name string, typ dnswire.Type) *dnswire.Message {
	t.Helper()
	query, err := dnswire.NewQuery(name, typ)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	resp, err := (&transport.UDP{}).Exchange(ctx, query, addr)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestFrontendAnswersWithPool(t *testing.T) {
	q := &staticQuerier{lists: map[string][]netip.Addr{
		"u0": addrs("192.0.2.1", "192.0.2.2"),
		"u1": addrs("192.0.2.3", "192.0.2.4"),
		"u2": addrs("192.0.2.5", "192.0.2.6"),
	}}
	fe := frontendUnderTest(t, q, false)
	resp := frontendQuery(t, fe.Addr(), "pool.test.", dnswire.TypeA)
	if resp.Header.RCode != dnswire.RCodeSuccess {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
	if got := len(resp.AnswerAddrs()); got != 6 {
		t.Fatalf("answers = %d, want 6", got)
	}
	if !resp.Header.RecursionAvailable {
		t.Error("RA clear")
	}
	if fe.Served() != 1 {
		t.Errorf("Served = %d", fe.Served())
	}
}

func TestFrontendMajorityMode(t *testing.T) {
	q := &staticQuerier{lists: map[string][]netip.Addr{
		"u0": addrs("192.0.2.1", "198.18.0.1"),
		"u1": addrs("192.0.2.1", "192.0.2.2"),
		"u2": addrs("192.0.2.1", "192.0.2.2"),
	}}
	fe := frontendUnderTest(t, q, true)
	resp := frontendQuery(t, fe.Addr(), "pool.test.", dnswire.TypeA)
	got := resp.AnswerAddrs()
	if len(got) != 2 {
		t.Fatalf("majority answers = %v", got)
	}
	for _, a := range got {
		if a == ip("198.18.0.1") {
			t.Fatal("minority address served")
		}
	}
}

func TestFrontendRejectsNonAddressQueries(t *testing.T) {
	q := &staticQuerier{lists: map[string][]netip.Addr{}}
	fe := frontendUnderTest(t, q, false)
	resp := frontendQuery(t, fe.Addr(), "pool.test.", dnswire.TypeTXT)
	if resp.Header.RCode != dnswire.RCodeNotImp {
		t.Fatalf("rcode = %v, want NOTIMP (pool generation is address-only, §II)", resp.Header.RCode)
	}
	if fe.Failures() != 1 {
		t.Errorf("Failures = %d", fe.Failures())
	}
}

func TestFrontendServFailOnGeneratorError(t *testing.T) {
	q := &staticQuerier{fail: true}
	fe := frontendUnderTest(t, q, false)
	resp := frontendQuery(t, fe.Addr(), "pool.test.", dnswire.TypeA)
	if resp.Header.RCode != dnswire.RCodeServFail {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
}

func TestFrontendFormErrOnJunk(t *testing.T) {
	q := &staticQuerier{lists: map[string][]netip.Addr{"u0": addrs("192.0.2.1")}}
	fe := frontendUnderTest(t, q, false)

	// A response-flagged message must be rejected as FORMERR.
	query, err := dnswire.NewQuery("pool.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	query.Header.Response = true
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	resp, err := (&transport.UDP{}).Exchange(ctx, query, fe.Addr())
	// The frontend answers with FORMERR; Validate passes since ID and
	// question echo.
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeFormErr {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
}

func TestFrontendTCP(t *testing.T) {
	q := &staticQuerier{lists: map[string][]netip.Addr{
		"u0": addrs("192.0.2.1", "192.0.2.2"),
		"u1": addrs("192.0.2.3", "192.0.2.4"),
		"u2": addrs("192.0.2.5", "192.0.2.6"),
	}}
	fe := frontendUnderTest(t, q, false)
	query, err := dnswire.NewQuery("pool.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	resp, err := (&transport.TCP{}).Exchange(ctx, query, fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(resp.AnswerAddrs()); got != 6 {
		t.Fatalf("TCP answers = %d", got)
	}
}

func TestFrontendTruncatesOversizedUDP(t *testing.T) {
	// 120 addresses per resolver → ~120*3 answer records, far over 512
	// bytes. A no-EDNS UDP client must get TC and succeed over TCP via
	// the Auto transport.
	big := make(map[string][]netip.Addr)
	for r := 0; r < 3; r++ {
		url := "u" + string(rune('0'+r))
		for i := 0; i < 120; i++ {
			big[url] = append(big[url], netip.AddrFrom4([4]byte{10, byte(r), byte(i), 1}))
		}
	}
	fe := frontendUnderTest(t, &staticQuerier{lists: big}, false)

	query, err := dnswire.NewQuery("pool.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	query.Additional = nil // no EDNS → 512-byte limit
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	udpResp, err := (&transport.UDP{}).Exchange(ctx, query, fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if !udpResp.Header.Truncated {
		t.Fatal("oversized UDP answer not truncated")
	}

	query2, err := dnswire.NewQuery("pool.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	query2.Additional = nil
	autoResp, err := (&transport.Auto{}).Exchange(ctx, query2, fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(autoResp.AnswerAddrs()); got != 360 {
		t.Fatalf("TCP fallback answers = %d, want 360", got)
	}
}

// TestFrontendTCPPersistentConnection sends several queries over one TCP
// connection (RFC 7766 connection reuse).
func TestFrontendTCPPersistentConnection(t *testing.T) {
	q := &staticQuerier{lists: map[string][]netip.Addr{
		"u0": addrs("192.0.2.1", "192.0.2.2"),
		"u1": addrs("192.0.2.3", "192.0.2.4"),
		"u2": addrs("192.0.2.5", "192.0.2.6"),
	}}
	fe := frontendUnderTest(t, q, false)

	conn, err := net.Dial("tcp", fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 5; i++ {
		query, err := dnswire.NewQuery("pool.test.", dnswire.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		if err := transport.WriteTCPMessage(conn, query); err != nil {
			t.Fatal(err)
		}
		resp, err := transport.ReadTCPMessage(conn)
		if err != nil {
			t.Fatalf("query %d over reused connection: %v", i, err)
		}
		if got := len(resp.AnswerAddrs()); got != 6 {
			t.Fatalf("query %d answers = %d", i, got)
		}
	}
	if fe.Served() != 5 {
		t.Errorf("Served = %d, want 5", fe.Served())
	}
}

// TestFrontendOnEngineCachesAcrossQueries wires the frontend onto an
// Engine and checks repeated frontend queries perform one upstream
// fan-out in total.
func TestFrontendOnEngineCachesAcrossQueries(t *testing.T) {
	q := newCountingQuerier(300, threeResolverLists())
	eng, err := NewEngine(Config{Resolvers: threeEndpoints(), Querier: q}, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	fe, err := NewFrontend("127.0.0.1:0", eng, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fe.Close() })

	for i := 0; i < 8; i++ {
		resp := frontendQuery(t, fe.Addr(), "pool.test.", dnswire.TypeA)
		if got := len(resp.AnswerAddrs()); got != 6 {
			t.Fatalf("query %d answers = %d", i, got)
		}
	}
	if got := q.total.Load(); got != 3 {
		t.Fatalf("8 frontend queries caused %d upstream exchanges, want 3", got)
	}
	if eng.NetworkRuns() != 1 {
		t.Errorf("NetworkRuns = %d, want 1", eng.NetworkRuns())
	}
}

// TestFrontendServesPoolTTL checks answer records carry the upstream TTL
// instead of a hardcoded figure.
func TestFrontendServesPoolTTL(t *testing.T) {
	q := newCountingQuerier(150, threeResolverLists())
	eng, err := NewEngine(Config{Resolvers: threeEndpoints(), Querier: q}, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	fe, err := NewFrontend("127.0.0.1:0", eng, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fe.Close() })

	resp := frontendQuery(t, fe.Addr(), "pool.test.", dnswire.TypeA)
	for _, r := range resp.Answers {
		if r.TTL != 150 {
			t.Fatalf("answer TTL = %d, want upstream 150", r.TTL)
		}
	}
}

// encryptedFrontendUnderTest starts a frontend serving all four
// transports (udp/tcp on one port, DoT and DoH on their own), with a
// testbed CA as server identity.
func encryptedFrontendUnderTest(t *testing.T, q Querier, reg *metrics.Registry) (*Frontend, *testpki.CA) {
	t.Helper()
	ca, err := testpki.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	tlsCfg, err := ca.ServerTLS("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(Config{
		Resolvers: []Endpoint{
			{Name: "r0", URL: "u0"},
			{Name: "r1", URL: "u1"},
			{Name: "r2", URL: "u2"},
		},
		Querier: q,
	})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontendWithConfig("127.0.0.1:0", gen, FrontendConfig{
		Timeout:   time.Second,
		DoTAddr:   "127.0.0.1:0",
		DoHAddr:   "127.0.0.1:0",
		TLSConfig: tlsCfg,
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fe.Close() })
	return fe, ca
}

func TestFrontendDoT(t *testing.T) {
	q := &staticQuerier{lists: map[string][]netip.Addr{
		"u0": addrs("192.0.2.1", "192.0.2.2"),
		"u1": addrs("192.0.2.3", "192.0.2.4"),
		"u2": addrs("192.0.2.5", "192.0.2.6"),
	}}
	fe, ca := encryptedFrontendUnderTest(t, q, nil)
	if fe.DoTAddr() == "" {
		t.Fatal("DoTAddr empty with DoT configured")
	}

	query, err := dnswire.NewQuery("pool.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	dot := &transport.DoT{TLSConfig: ca.ClientTLS()}
	resp, err := dot.Exchange(ctx, query, fe.DoTAddr())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(resp.AnswerAddrs()); got != 6 {
		t.Fatalf("DoT answers = %d, want 6", got)
	}

	// An untrusted client must fail the handshake: the serving hop is
	// authenticated, exactly like the upstream DoH hop.
	otherCA, err := testpki.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	bad := &transport.DoT{TLSConfig: otherCA.ClientTLS()}
	if _, err := bad.Exchange(ctx, query, fe.DoTAddr()); err == nil {
		t.Fatal("DoT exchange succeeded with untrusted CA — channel authentication broken")
	}
}

// TestFrontendDoTPersistentConnection drives several queries over one
// TLS session: RFC 7858 inherits RFC 7766 connection reuse.
func TestFrontendDoTPersistentConnection(t *testing.T) {
	q := &staticQuerier{lists: map[string][]netip.Addr{
		"u0": addrs("192.0.2.1", "192.0.2.2"),
		"u1": addrs("192.0.2.3", "192.0.2.4"),
		"u2": addrs("192.0.2.5", "192.0.2.6"),
	}}
	fe, ca := encryptedFrontendUnderTest(t, q, nil)

	conn, err := tls.Dial("tcp", fe.DoTAddr(), ca.ClientTLS())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 5; i++ {
		query, err := dnswire.NewQuery("pool.test.", dnswire.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		if err := transport.WriteTCPMessage(conn, query); err != nil {
			t.Fatal(err)
		}
		resp, err := transport.ReadTCPMessage(conn)
		if err != nil {
			t.Fatalf("query %d over reused TLS session: %v", i, err)
		}
		if got := len(resp.AnswerAddrs()); got != 6 {
			t.Fatalf("query %d answers = %d", i, got)
		}
	}
	if fe.Served() != 5 {
		t.Errorf("Served = %d, want 5", fe.Served())
	}
}

func TestFrontendDoH(t *testing.T) {
	q := &staticQuerier{lists: map[string][]netip.Addr{
		"u0": addrs("192.0.2.1", "192.0.2.2"),
		"u1": addrs("192.0.2.3", "192.0.2.4"),
		"u2": addrs("192.0.2.5", "192.0.2.6"),
	}}
	reg := metrics.New()
	fe, ca := encryptedFrontendUnderTest(t, q, reg)
	if fe.DoHAddr() == "" {
		t.Fatal("DoHAddr empty with DoH configured")
	}
	url := "https://" + fe.DoHAddr() + doh.DefaultPath
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()

	for _, method := range []doh.Method{doh.MethodPOST, doh.MethodGET} {
		client := doh.NewClient(doh.WithTLSConfig(ca.ClientTLS()), doh.WithMethod(method))
		resp, err := client.Query(ctx, url, "pool.test.", dnswire.TypeA)
		if err != nil {
			t.Fatalf("method %v: %v", method, err)
		}
		if got := len(resp.AnswerAddrs()); got != 6 {
			t.Fatalf("method %v answers = %d, want 6", method, got)
		}
	}

	// The DoT and DoH query counters carry their own proto labels.
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), MetricFrontendQueries+`{proto="doh"} 2`) {
		t.Errorf("missing doh query series:\n%s", buf.String())
	}
}

func TestFrontendListeners(t *testing.T) {
	q := &staticQuerier{lists: map[string][]netip.Addr{}}
	fe, _ := encryptedFrontendUnderTest(t, q, nil)
	got := map[string]ListenerInfo{}
	for _, l := range fe.Listeners() {
		if l.Addr == "" {
			t.Errorf("listener %s has empty addr", l.Proto)
		}
		got[l.Proto] = l
	}
	if len(got) != 4 {
		t.Fatalf("listeners = %v, want udp/tcp/dot/doh", got)
	}
	for proto, wantEncrypted := range map[string]bool{
		ProtoUDP: false, ProtoTCP: false, ProtoDoT: true, ProtoDoH: true,
	} {
		l, ok := got[proto]
		if !ok {
			t.Fatalf("missing %s listener", proto)
		}
		if l.Encrypted != wantEncrypted {
			t.Errorf("%s encrypted = %v, want %v", proto, l.Encrypted, wantEncrypted)
		}
	}
}

func TestFrontendEncryptedRequiresTLSConfig(t *testing.T) {
	q := &staticQuerier{lists: map[string][]netip.Addr{}}
	gen, err := NewGenerator(Config{
		Resolvers: []Endpoint{{Name: "r0", URL: "u0"}},
		Querier:   q,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFrontendWithConfig("127.0.0.1:0", gen, FrontendConfig{DoTAddr: "127.0.0.1:0"}); err == nil {
		t.Fatal("DoT without TLSConfig accepted")
	}
	if _, err := NewFrontendWithConfig("127.0.0.1:0", gen, FrontendConfig{DoHAddr: "127.0.0.1:0"}); err == nil {
		t.Fatal("DoH without TLSConfig accepted")
	}
}

// TestLimitListenerBoundsAccepts checks the DoH listener's connection
// budget: at capacity, Accept blocks until an accepted conn closes, and
// double-Close releases the slot only once.
func TestLimitListenerBoundsAccepts(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := newLimitListener(inner, 1)
	t.Cleanup(func() { _ = ln.Close() })

	accepted := make(chan net.Conn, 4)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- conn
		}
	}()

	dial := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", inner.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}

	dial()
	var first net.Conn
	select {
	case first = <-accepted:
	case <-time.After(3 * time.Second):
		t.Fatal("first connection never accepted")
	}

	// Budget exhausted: the second dial connects (kernel backlog) but
	// must not be accepted while the first conn is open.
	dial()
	select {
	case <-accepted:
		t.Fatal("second connection accepted past the budget")
	case <-time.After(100 * time.Millisecond):
	}

	// Double-Close must release exactly one slot.
	first.Close()
	first.Close()
	select {
	case <-accepted:
	case <-time.After(3 * time.Second):
		t.Fatal("slot not released after conn close")
	}
	select {
	case <-accepted:
		t.Fatal("double Close released two slots")
	case <-time.After(100 * time.Millisecond):
	}
}

func TestFrontendCloseIdempotency(t *testing.T) {
	q := &staticQuerier{lists: map[string][]netip.Addr{}}
	gen, err := NewGenerator(Config{
		Resolvers: []Endpoint{{Name: "r0", URL: "u0"}},
		Querier:   q,
	})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontend("127.0.0.1:0", gen, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fe.Close(); err != ErrFrontendClosed {
		t.Fatalf("second close = %v", err)
	}
}
