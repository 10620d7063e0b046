package core

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/netip"
	"sync"
	"testing"
	"time"

	"dohpool/internal/dnswire"
	"dohpool/internal/metrics"
	"dohpool/internal/testpki"
)

// This file holds the slow path to its contract now that, once a miss's
// Lookup has returned, every transport answers with a patched copy of the
// wire entry that generation published: the bytes are the ones the
// message builder and encoder produce (slowServeWire and a frontend over
// slowOnlyBackend are the references), whatever happened to the entry
// between publish and serve; one query is one Lookup and one generation;
// and every instrument counts what it counted before.

// servedAfterMissCases are the query shapes of the differential tests: a
// 120-answer pool encodes to about 2 KB, so over UDP everything below
// EDNS 4096 truncates, and over a stream nothing does.
var servedAfterMissCases = []struct {
	name   string
	edns   int
	rd, cd bool
}{
	{"no-edns", 0, true, false},
	{"no-edns-cd", 0, false, true},
	{"edns-512", 512, true, true},
	{"edns-1232", 1232, false, false},
	{"edns-4096", 4096, true, false},
	{"edns-4096-cd", 4096, true, true},
}

func bigPoolQuerier() *swapQuerier {
	return &swapQuerier{lists: map[string][]netip.Addr{
		"u0": manyAddrs(0, 40),
		"u1": manyAddrs(1000, 40),
		"u2": manyAddrs(2000, 40),
	}}
}

// TestServedAfterMissDifferentialStreams is TestParkedAnswerDifferential
// for TCP, DoT and DoH: a query for a name nobody has asked for is
// answered once its generation returns, and the answer must be, byte for
// byte and header for header, what a frontend without any wire cache
// builds, encodes and sends for the same query and pool.
func TestServedAfterMissDifferentialStreams(t *testing.T) {
	clk := newTestClock()
	ca, err := testpki.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	tlsCfg, err := ca.ServerTLS("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(Config{Resolvers: threeEndpoints(), Querier: bigPoolQuerier()},
		EngineConfig{Clock: clk.now, DisableHedging: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	reg := metrics.New()
	newFE := func(backend Backend, reg *metrics.Registry) *Frontend {
		fe, err := NewFrontendWithConfig("127.0.0.1:0", backend, FrontendConfig{
			Timeout: time.Second, DoTAddr: "127.0.0.1:0", DoHAddr: "127.0.0.1:0", TLSConfig: tlsCfg, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = fe.Close() })
		return fe
	}
	fe, oracle := newFE(eng, reg), newFE(slowOnlyBackend{eng}, nil)
	httpClient := &http.Client{
		Transport: &http.Transport{TLSClientConfig: ca.ClientTLS(), ForceAttemptHTTP2: true},
		Timeout:   5 * time.Second,
	}
	defer httpClient.CloseIdleConnections()

	protos := []string{ProtoTCP, ProtoDoT, ProtoDoH}
	exchange := func(f *Frontend, proto string, query []byte) ([]byte, http.Header) {
		switch proto {
		case ProtoTCP:
			return oneShotStream(t, f.Addr(), nil, query), nil
		case ProtoDoT:
			return oneShotStream(t, f.DoTAddr(), ca.ClientTLS(), query), nil
		default:
			return dohPost(t, httpClient, f.DoHAddr(), query)
		}
	}
	for i, tc := range servedAfterMissCases {
		for _, proto := range protos {
			// A name of its own per case and transport: every one a miss.
			name := fmt.Sprintf("miss-%d-%s.test.", i, proto)
			query := rawQueryBytes(t, uint16(0x5000+i), name, dnswire.TypeA, tc.edns, tc.rd, tc.cd)
			got, gotHdr := exchange(fe, proto, query)
			want, wantHdr := exchange(oracle, proto, query)
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s: answer served after the miss differs from the built one:\ngot  %x\nwant %x", proto, tc.name, got, want)
			}
			for _, h := range []string{"Content-Type", "Cache-Control", "Content-Length"} {
				if gotHdr.Get(h) != wantHdr.Get(h) {
					t.Errorf("%s/%s: %s = %q, want %q", proto, tc.name, h, gotHdr.Get(h), wantHdr.Get(h))
				}
			}
			if tc := got[2]&0x02 != 0; tc {
				t.Errorf("%s: a stream answer has TC set", proto)
			}
			if ancount := int(got[6])<<8 | int(got[7]); ancount != 120 {
				t.Errorf("%s/%s: ancount = %d, want 120", proto, tc.name, ancount)
			}
		}
	}

	perProto := len(servedAfterMissCases)
	names := perProto * len(protos)
	if got := eng.NetworkRuns(); got != uint64(names) {
		t.Errorf("%d generations for %d names: the oracle's lookups must have been cache hits, the served ones single", got, names)
	}
	// Every query missed the wire cache once, on the fast path's own
	// attempt; the read after the generation is not a cache lookup.
	if st := eng.wire.Stats(); st.Hits != 0 || st.Misses != uint64(names) {
		t.Errorf("wire cache hits %d misses %d, want 0 and %d", st.Hits, st.Misses, names)
	}
	want := []string{
		fmt.Sprintf(`%s{rcode="NOERROR"} %d`, MetricFrontendResponses, names),
		MetricFrontendWriteErrors + `{proto="tcp"} 0`,
		MetricFrontendWriteErrors + `{proto="dot"} 0`,
	}
	for _, proto := range protos {
		want = append(want,
			fmt.Sprintf(`%s{proto=%q} %d`, MetricFrontendQueries, proto, perProto),
			fmt.Sprintf(`%s{proto=%q} 0`, MetricFrontendInflight, proto),
			fmt.Sprintf(`%s_count{proto=%q} %d`, MetricFrontendLatency, proto, perProto),
		)
	}
	mustContain(t, exposition(t, reg), want...)
	if fe.Served() != uint64(names) || fe.Failures() != 0 {
		t.Errorf("served %d failures %d, want %d and 0", fe.Served(), fe.Failures(), names)
	}
}

// meddlingBackend is the engine with something done to its caches between
// a Lookup's return and the frontend's use of it — the window in which a
// busy daemon's other generations evict what this one published.
type meddlingBackend struct {
	*Engine
	meddle func(domain string, typ dnswire.Type)

	mu      sync.Mutex
	lookups map[string]int
}

func (m *meddlingBackend) Lookup(ctx context.Context, domain string, typ dnswire.Type) (*Pool, error) {
	m.mu.Lock()
	if m.lookups == nil {
		m.lookups = make(map[string]int)
	}
	m.lookups[domain]++
	m.mu.Unlock()
	pool, err := m.Engine.Lookup(ctx, domain, typ)
	m.meddle(domain, typ)
	return pool, err
}

// TestServedAfterMissSurvivesEviction covers the two cases the route
// through the wire cache creates. The wire entry gone but the pool still
// cached: the entry is rebuilt from the pool. Entry and pool both gone (a
// cache of one, and another name's generation published in between): the
// answer is built from the pool the Lookup returned. Either way the
// client gets the bytes it always got, from one Lookup and one generation.
func TestServedAfterMissSurvivesEviction(t *testing.T) {
	for _, tt := range []struct {
		name   string
		ecfg   EngineConfig
		meddle func(eng *Engine) func(string, dnswire.Type)
		// extra is how many generations the meddling itself costs per query.
		extra int
	}{
		{
			name: "wire entry evicted, pool cached",
			meddle: func(eng *Engine) func(string, dnswire.Type) {
				return func(domain string, typ dnswire.Type) {
					eng.wire.Invalidate(domain + "|1")
				}
			},
		},
		{
			name: "wire entry and pool both evicted",
			ecfg: EngineConfig{CacheSize: 1, CacheShards: 1},
			meddle: func(eng *Engine) func(string, dnswire.Type) {
				return func(domain string, typ dnswire.Type) {
					if _, err := eng.Lookup(context.Background(), "evictor-of-"+domain, typ); err != nil {
						t.Errorf("evicting lookup: %v", err)
					}
				}
			},
			extra: 1,
		},
	} {
		t.Run(tt.name, func(t *testing.T) {
			clk := newTestClock()
			tt.ecfg.Clock, tt.ecfg.DisableHedging = clk.now, true
			eng, err := NewEngine(Config{Resolvers: threeEndpoints(), Querier: bigPoolQuerier()}, tt.ecfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = eng.Close() })
			backend := &meddlingBackend{Engine: eng, meddle: tt.meddle(eng)}
			reg := metrics.New()
			fe, err := NewFrontendWithConfig("127.0.0.1:0", backend, FrontendConfig{Timeout: time.Second, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = fe.Close() })
			if fe.wire == nil {
				t.Fatal("the meddling backend hides the wire cache")
			}
			oracle, err := NewFrontendWithConfig("127.0.0.1:0", slowOnlyBackend{eng}, FrontendConfig{Timeout: time.Second})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = oracle.Close() })

			for i, tc := range servedAfterMissCases {
				// One name per query: each is a miss, meddled with once.
				udpName, tcpName := fmt.Sprintf("evicted-%d.test.", i), fmt.Sprintf("evicted-tcp-%d.test.", i)
				query := rawQueryBytes(t, uint16(0x6000+i), udpName, dnswire.TypeA, tc.edns, tc.rd, tc.cd)
				before := eng.NetworkRuns()
				udp := rawUDPExchange(t, fe.Addr(), query)
				streamQuery := rawQueryBytes(t, uint16(0x6100+i), tcpName, dnswire.TypeA, tc.edns, tc.rd, tc.cd)
				tcp := oneShotStream(t, fe.Addr(), nil, streamQuery)
				if got, want := eng.NetworkRuns()-before, uint64(2*(1+tt.extra)); got != want {
					t.Fatalf("%s: %d generations for two names, want %d: one each (and the evictors')", tc.name, got, want)
				}
				backend.mu.Lock()
				if u, s := backend.lookups[udpName], backend.lookups[tcpName]; u != 1 || s != 1 {
					t.Errorf("%s: %d and %d Lookups for the UDP and the TCP query, want one each", tc.name, u, s)
				}
				backend.mu.Unlock()

				want, ok := slowServeWire(oracle, query)
				if !ok {
					t.Fatalf("%s: reference path produced no answer", tc.name)
				}
				if !bytes.Equal(udp, want) {
					t.Errorf("%s: udp answer differs from the built one:\ngot  %x\nwant %x", tc.name, udp, want)
				}
				if wantTCP := oneShotStream(t, oracle.Addr(), nil, streamQuery); !bytes.Equal(tcp, wantTCP) {
					t.Errorf("%s: tcp answer differs from the built one:\ngot  %x\nwant %x", tc.name, tcp, wantTCP)
				}
			}
			n := len(servedAfterMissCases)
			mustContain(t, exposition(t, reg),
				fmt.Sprintf(`%s{proto="udp"} %d`, MetricFrontendQueries, n),
				fmt.Sprintf(`%s{proto="tcp"} %d`, MetricFrontendQueries, n),
				fmt.Sprintf(`%s_count{proto="udp"} %d`, MetricFrontendLatency, n),
				fmt.Sprintf(`%s{rcode="NOERROR"} %d`, MetricFrontendResponses, 2*n),
				MetricFrontendInflight+`{proto="udp"} 0`,
				MetricFrontendWriteErrors+`{proto="udp"} 0`,
			)
			if st := eng.wire.Stats(); st.Hits != 0 {
				t.Errorf("wire cache counts %d hits; no query here was served by the fast path", st.Hits)
			}
		})
	}
}

// hugePoolBackend answers every lookup with a pool no 64 KiB message
// holds: 5 000 A records are 80 000 octets of answer section.
type hugePoolBackend struct{}

func (hugePoolBackend) Lookup(context.Context, string, dnswire.Type) (*Pool, error) {
	return &Pool{Addrs: manyAddrs(0, 5000), TTL: 60}, nil
}
func (hugePoolBackend) ServeMajority() bool { return false }

// TestUnencodableAnswerIsServFail: an answer that cannot be encoded used
// to be neither sent nor counted over UDP, to close the connection over
// TCP and to be a 500 over DoH. On every transport it is one SERVFAIL,
// counted as the failed resolution it is to the client.
func TestUnencodableAnswerIsServFail(t *testing.T) {
	ca, err := testpki.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	tlsCfg, err := ca.ServerTLS("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	fe, err := NewFrontendWithConfig("127.0.0.1:0", hugePoolBackend{}, FrontendConfig{
		Timeout: time.Second, DoHAddr: "127.0.0.1:0", TLSConfig: tlsCfg, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fe.Close() })
	httpClient := &http.Client{
		Transport: &http.Transport{TLSClientConfig: ca.ClientTLS(), ForceAttemptHTTP2: true},
		Timeout:   5 * time.Second,
	}
	defer httpClient.CloseIdleConnections()

	query := rawQueryBytes(t, 0x7001, "huge.test.", dnswire.TypeA, 4096, true, false)
	// A padded query is the one DoH shape the handler, not serveDoH,
	// answers: it takes frontendResponder's route.
	padded, err := dnswire.Decode(query)
	if err != nil {
		t.Fatal(err)
	}
	if err := padded.PadTo(dnswire.QueryPaddingBlock); err != nil {
		t.Fatal(err)
	}
	paddedQuery, err := padded.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dohPadded, _ := dohPost(t, httpClient, fe.DoHAddr(), paddedQuery)
	dohPlain, _ := dohPost(t, httpClient, fe.DoHAddr(), query)
	answers := map[string][]byte{
		"udp":        rawUDPExchange(t, fe.Addr(), query),
		"tcp":        oneShotStream(t, fe.Addr(), nil, query),
		"doh":        dohPlain,
		"doh padded": dohPadded,
	}
	for proto, wire := range answers {
		resp, err := dnswire.Decode(wire)
		if err != nil {
			t.Fatalf("%s: undecodable answer: %v", proto, err)
		}
		if resp.Header.RCode != dnswire.RCodeServFail || len(resp.Answers) != 0 || resp.Header.ID != 0x7001 {
			t.Errorf("%s: rcode %v, %d answers, ID %#x; want SERVFAIL, none, the query's", proto, resp.Header.RCode, len(resp.Answers), resp.Header.ID)
		}
		if len(resp.Questions) != 1 || resp.Questions[0].Name != "huge.test." {
			t.Errorf("%s: question %v not echoed", proto, resp.Questions)
		}
	}
	if fe.Failures() != 4 || fe.Served() != 0 {
		t.Errorf("failures %d served %d, want 4 and 0", fe.Failures(), fe.Served())
	}
	mustContain(t, exposition(t, reg),
		MetricFrontendResponses+`{rcode="SERVFAIL"} 4`,
		MetricFrontendResponses+`{rcode="NOERROR"} 0`,
		MetricFrontendQueries+`{proto="udp"} 1`,
		MetricFrontendQueries+`{proto="tcp"} 1`,
		MetricFrontendQueries+`{proto="doh"} 2`,
		MetricFrontendInflight+`{proto="udp"} 0`,
		MetricFrontendDropped+" 0",
	)
}
