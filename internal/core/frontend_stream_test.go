package core

import (
	"bytes"
	"crypto/tls"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"strings"
	"testing"
	"time"

	"dohpool/internal/dnswire"
	"dohpool/internal/doh"
	"dohpool/internal/metrics"
	"dohpool/internal/testpki"
)

// streamPairUnderTest builds one engine with two frontends over it:
// fast (the engine itself, wire cache live) and slow (slowOnlyBackend,
// every query through decode → respond → encode), both serving all four
// transports with the same CA identity. The slow frontend is the
// differential oracle: for any query the fast one serves from the wire
// cache, the slow one's bytes define correct.
func streamPairUnderTest(t *testing.T, q Querier, clk *testClock) (*Engine, *Frontend, *Frontend, *testpki.CA) {
	t.Helper()
	ca, err := testpki.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	tlsCfg, err := ca.ServerTLS("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(Config{
		Resolvers: []Endpoint{
			{Name: "r0", URL: "u0"},
			{Name: "r1", URL: "u1"},
			{Name: "r2", URL: "u2"},
		},
		Querier: q,
	}, EngineConfig{Clock: clk.now, DisableHedging: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	newFE := func(backend Backend) *Frontend {
		fe, err := NewFrontendWithConfig("127.0.0.1:0", backend, FrontendConfig{
			Timeout:   time.Second,
			DoTAddr:   "127.0.0.1:0",
			DoHAddr:   "127.0.0.1:0",
			TLSConfig: tlsCfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = fe.Close() })
		return fe
	}
	fastFE := newFE(eng)
	slowFE := newFE(slowOnlyBackend{eng})
	if fastFE.wire == nil {
		t.Fatal("fast frontend does not see the wire cache")
	}
	if slowFE.wire != nil {
		t.Fatal("slow frontend unexpectedly sees the wire cache")
	}
	return eng, fastFE, slowFE, ca
}

// streamExchange writes one RFC 7766 framed query on conn and reads the
// framed response, returning the message bytes (prefix stripped).
func streamExchange(t testing.TB, conn net.Conn, query []byte) []byte {
	t.Helper()
	framed := make([]byte, 2+len(query))
	framed[0], framed[1] = byte(len(query)>>8), byte(len(query))
	copy(framed[2:], query)
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(framed); err != nil {
		t.Fatal(err)
	}
	var prefix [2]byte
	if _, err := io.ReadFull(conn, prefix[:]); err != nil {
		t.Fatal(err)
	}
	resp := make([]byte, int(prefix[0])<<8|int(prefix[1]))
	if _, err := io.ReadFull(conn, resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// oneShotStream dials addr (TLS when tlsCfg non-nil), runs one framed
// exchange and closes.
func oneShotStream(t testing.TB, addr string, tlsCfg *tls.Config, query []byte) []byte {
	t.Helper()
	var conn net.Conn
	var err error
	if tlsCfg != nil {
		conn, err = tls.Dial("tcp", addr, tlsCfg)
	} else {
		conn, err = net.Dial("tcp", addr)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	return streamExchange(t, conn, query)
}

// dohPost POSTs raw query bytes per RFC 8484 and returns the response
// body plus the headers the handler shaped.
func dohPost(t testing.TB, client *http.Client, addr string, query []byte) ([]byte, http.Header) {
	t.Helper()
	url := "https://" + addr + doh.DefaultPath
	resp, err := client.Post(url, doh.MediaType, bytes.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s = %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.Header
}

// TestStreamFastPathDifferential is the acceptance test for the stream
// fast path: over TCP, DoT and DoH, the pre-framed wire-cache serve
// must be byte-identical to the slow path for every EDNS/RD/CD shape —
// including the shapes whose UDP answer truncates, because a stream
// never does.
func TestStreamFastPathDifferential(t *testing.T) {
	q := bigPoolQuerier()
	clk := newTestClock()
	eng, fastFE, slowFE, ca := streamPairUnderTest(t, q, clk)

	// Warm through UDP so the wire cache holds the entry both stream
	// fast paths will serve.
	warm := rawQueryBytes(t, 1, "pool.test.", dnswire.TypeA, 4096, true, false)
	if resp := rawUDPExchange(t, fastFE.Addr(), warm); resp[3]&0x0F != 0 {
		t.Fatalf("warm query rcode = %d", resp[3]&0x0F)
	}
	entry, _, ok := eng.WireLookup([]byte("pool.test.|1"), false)
	if !ok {
		t.Fatal("no wire entry after warm-up")
	}
	if len(entry.Full) <= dnswire.MaxUDPSize {
		t.Fatalf("test pool encodes to %d bytes; want > 512 so UDP would truncate where streams must not", len(entry.Full))
	}

	httpClient := &http.Client{
		Transport: &http.Transport{TLSClientConfig: ca.ClientTLS(), ForceAttemptHTTP2: true},
		Timeout:   5 * time.Second,
	}
	defer httpClient.CloseIdleConnections()

	cases := []struct {
		name   string
		edns   int
		rd, cd bool
	}{
		{"no-edns", 0, true, false},
		{"edns-512", 512, false, true},
		{"edns-1232", 1232, true, true},
		{"edns-4096", 4096, false, false},
		{"edns-one-short", len(entry.Full) - 1, true, false},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			query := rawQueryBytes(t, uint16(0x3000+i), "pool.test.", dnswire.TypeA, tc.edns, tc.rd, tc.cd)

			fastTCP := oneShotStream(t, fastFE.Addr(), nil, query)
			slowTCP := oneShotStream(t, slowFE.Addr(), nil, query)
			if !bytes.Equal(fastTCP, slowTCP) {
				t.Fatalf("tcp fast bytes differ from slow:\nfast %x\nslow %x", fastTCP, slowTCP)
			}

			fastDoT := oneShotStream(t, fastFE.DoTAddr(), ca.ClientTLS(), query)
			slowDoT := oneShotStream(t, slowFE.DoTAddr(), ca.ClientTLS(), query)
			if !bytes.Equal(fastDoT, slowDoT) {
				t.Fatalf("dot fast bytes differ from slow:\nfast %x\nslow %x", fastDoT, slowDoT)
			}

			fastDoH, fastHdr := dohPost(t, httpClient, fastFE.DoHAddr(), query)
			slowDoH, slowHdr := dohPost(t, httpClient, slowFE.DoHAddr(), query)
			if !bytes.Equal(fastDoH, slowDoH) {
				t.Fatalf("doh fast bytes differ from slow:\nfast %x\nslow %x", fastDoH, slowDoH)
			}
			for _, h := range []string{"Content-Type", "Cache-Control"} {
				if fastHdr.Get(h) != slowHdr.Get(h) {
					t.Errorf("doh %s = %q, want slow path's %q", h, fastHdr.Get(h), slowHdr.Get(h))
				}
			}

			// Stream answers never truncate: whatever the EDNS size said,
			// the full pool must be served with TC clear — and all three
			// transports carry the same message.
			for proto, resp := range map[string][]byte{"tcp": fastTCP, "dot": fastDoT, "doh": fastDoH} {
				if resp[2]&0x02 != 0 {
					t.Errorf("%s response has TC set", proto)
				}
				if gotAns := int(resp[6])<<8 | int(resp[7]); gotAns != 120 {
					t.Errorf("%s ancount = %d, want 120", proto, gotAns)
				}
				if resp[0] != query[0] || resp[1] != query[1] {
					t.Errorf("%s response ID does not echo the query ID", proto)
				}
				if gotRD := resp[2]&0x01 != 0; gotRD != tc.rd {
					t.Errorf("%s RD echo = %v, want %v", proto, gotRD, tc.rd)
				}
				if gotCD := resp[3]&0x10 != 0; gotCD != tc.cd {
					t.Errorf("%s CD echo = %v, want %v", proto, gotCD, tc.cd)
				}
			}
		})
	}
}

// TestStreamFastPathPipelinedIDs pipelines many distinct-ID queries on
// one persistent DoT connection: the serve loop reuses one pooled
// scratch buffer for every response on the conn, so any cross-patch or
// torn copy would surface as a response carrying the wrong ID or flags.
func TestStreamFastPathPipelinedIDs(t *testing.T) {
	q := &swapQuerier{lists: map[string][]netip.Addr{
		"u0": manyAddrs(0, 2), "u1": manyAddrs(100, 2), "u2": manyAddrs(200, 2),
	}}
	clk := newTestClock()
	_, fastFE, _, ca := streamPairUnderTest(t, q, clk)
	rawUDPExchange(t, fastFE.Addr(), rawQueryBytes(t, 1, "pool.test.", dnswire.TypeA, 0, true, false))

	conn, err := tls.Dial("tcp", fastFE.DoTAddr(), ca.ClientTLS())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))

	// Write the whole pipeline first (RFC 7766 §6.2.1), alternating RD
	// and CD so the flag echo must track each query, then read the
	// responses back in order.
	const n = 64
	queries := make([][]byte, n)
	var pipeline bytes.Buffer
	for i := range queries {
		queries[i] = rawQueryBytes(t, uint16(0x4100+i), "pool.test.", dnswire.TypeA, 0, i%2 == 0, i%3 == 0)
		pipeline.WriteByte(byte(len(queries[i]) >> 8))
		pipeline.WriteByte(byte(len(queries[i])))
		pipeline.Write(queries[i])
	}
	if _, err := conn.Write(pipeline.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i, query := range queries {
		var prefix [2]byte
		if _, err := io.ReadFull(conn, prefix[:]); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		resp := make([]byte, int(prefix[0])<<8|int(prefix[1]))
		if _, err := io.ReadFull(conn, resp); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if resp[0] != query[0] || resp[1] != query[1] {
			t.Fatalf("response %d carries ID %x, want %x", i, resp[:2], query[:2])
		}
		if gotRD := resp[2]&0x01 != 0; gotRD != (i%2 == 0) {
			t.Fatalf("response %d RD = %v, want %v", i, gotRD, i%2 == 0)
		}
		if gotCD := resp[3]&0x10 != 0; gotCD != (i%3 == 0) {
			t.Fatalf("response %d CD = %v, want %v", i, gotCD, i%3 == 0)
		}
		if resp[3]&0x0F != 0 {
			t.Fatalf("response %d rcode = %d", i, resp[3]&0x0F)
		}
	}
}

// TestDoHFastPathPaddedQueriesGoSlow sends a padded (RFC 8467) DoH
// query: the wire fast path must decline it so the slow path can pad
// the response, and the fast frontend's bytes must still match the
// slow-only oracle's.
func TestDoHFastPathPaddedQueriesGoSlow(t *testing.T) {
	q := &swapQuerier{lists: map[string][]netip.Addr{
		"u0": manyAddrs(0, 2), "u1": manyAddrs(100, 2), "u2": manyAddrs(200, 2),
	}}
	clk := newTestClock()
	_, fastFE, slowFE, ca := streamPairUnderTest(t, q, clk)
	rawUDPExchange(t, fastFE.Addr(), rawQueryBytes(t, 1, "pool.test.", dnswire.TypeA, 0, true, false))

	padded := &dnswire.Message{
		Header: dnswire.Header{
			ID:               0x5151,
			Opcode:           dnswire.OpcodeQuery,
			RecursionDesired: true,
		},
		Questions: []dnswire.Question{{Name: "pool.test.", Type: dnswire.TypeA, Class: dnswire.ClassINET}},
	}
	padded.SetEDNS(dnswire.DefaultEDNSSize)
	if err := padded.PadTo(128); err != nil {
		t.Fatal(err)
	}
	query, err := padded.Encode()
	if err != nil {
		t.Fatal(err)
	}

	httpClient := &http.Client{
		Transport: &http.Transport{TLSClientConfig: ca.ClientTLS(), ForceAttemptHTTP2: true},
		Timeout:   5 * time.Second,
	}
	defer httpClient.CloseIdleConnections()
	fast, _ := dohPost(t, httpClient, fastFE.DoHAddr(), query)
	slow, _ := dohPost(t, httpClient, slowFE.DoHAddr(), query)
	if !bytes.Equal(fast, slow) {
		t.Fatalf("padded-query fast bytes differ from slow:\nfast %x\nslow %x", fast, slow)
	}
	resp, err := dnswire.Decode(fast)
	if err != nil {
		t.Fatal(err)
	}
	if !queryPaddedWire(t, resp) {
		t.Fatal("response to a padded query is not padded (fast path served what the slow path would have shaped)")
	}
}

// queryPaddedWire reports whether a decoded message carries the EDNS
// Padding option.
func queryPaddedWire(t *testing.T, m *dnswire.Message) bool {
	t.Helper()
	opts, err := m.EDNSOptions()
	if err != nil {
		return false
	}
	for _, o := range opts {
		if o.Code == dnswire.EDNSOptionPadding {
			return true
		}
	}
	return false
}

// TestMultiSocketServing serves with four SO_REUSEPORT sockets and
// sprays queries from many distinct source ports (the kernel steers
// flows by 4-tuple hash, so distinct sources spread across sockets).
// Every query must be answered, and the per-socket packet counters must
// account for every datagram received.
func TestMultiSocketServing(t *testing.T) {
	q := &swapQuerier{lists: map[string][]netip.Addr{
		"u0": manyAddrs(0, 2), "u1": manyAddrs(100, 2), "u2": manyAddrs(200, 2),
	}}
	clk := newTestClock()
	eng, err := NewEngine(Config{
		Resolvers: []Endpoint{
			{Name: "r0", URL: "u0"},
			{Name: "r1", URL: "u1"},
			{Name: "r2", URL: "u2"},
		},
		Querier: q,
	}, EngineConfig{Clock: clk.now, DisableHedging: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	reg := metrics.New()
	fe, err := NewFrontendWithConfig("127.0.0.1:0", eng, FrontendConfig{
		Timeout:    time.Second,
		UDPSockets: 4,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	if got := fe.UDPSockets(); got != 4 {
		t.Fatalf("UDPSockets() = %d, want 4 (SO_REUSEPORT unsupported here?)", got)
	}

	rawUDPExchange(t, fe.Addr(), rawQueryBytes(t, 1, "pool.test.", dnswire.TypeA, 0, true, false))

	const clients = 32
	const perClient = 4
	for c := 0; c < clients; c++ {
		conn, err := net.Dial("udp", fe.Addr())
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, dnswire.MaxMessageSize)
		for i := 0; i < perClient; i++ {
			query := rawQueryBytes(t, uint16(c<<8|i), "pool.test.", dnswire.TypeA, 0, true, false)
			if _, err := conn.Write(query); err != nil {
				t.Fatal(err)
			}
			n, err := conn.Read(buf)
			if err != nil {
				t.Fatalf("client %d query %d: %v", c, i, err)
			}
			if buf[0] != query[0] || buf[1] != query[1] {
				t.Fatalf("client %d query %d: wrong ID in response", c, i)
			}
			if n < 12 || buf[3]&0x0F != 0 {
				t.Fatalf("client %d query %d: bad response (n=%d rcode=%d)", c, i, n, buf[3]&0x0F)
			}
		}
		conn.Close()
	}

	exposition := exposition(t, reg)
	total := uint64(0)
	for i := 0; i < 4; i++ {
		line := fmt.Sprintf("%s{socket=\"%d\"} ", MetricFrontendUDPSocketPackets, i)
		idx := strings.Index(exposition, line)
		if idx < 0 {
			t.Fatalf("exposition missing %q:\n%s", line, exposition)
		}
		var v uint64
		if _, err := fmt.Sscanf(exposition[idx+len(line):], "%d", &v); err != nil {
			t.Fatalf("parse %q value: %v", line, err)
		}
		total += v
	}
	const want = 1 + clients*perClient
	if total < want {
		t.Fatalf("per-socket packet counters sum to %d, want >= %d", total, want)
	}
}
