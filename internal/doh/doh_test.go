package doh

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/base64"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dohpool/internal/dnswire"
	"dohpool/internal/testpki"
)

// echoResponder answers every A query with a fixed address.
func echoResponder(addr string) QueryResponder {
	ip := netip.MustParseAddr(addr)
	return ResponderFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		resp := dnswire.NewResponse(q)
		resp.Header.RecursionAvailable = true
		resp.Answers = append(resp.Answers,
			dnswire.AddressRecord(q.Questions[0].Name, ip, 60))
		return resp, nil
	})
}

func startTLSServer(t *testing.T, responder QueryResponder) (*Server, *Client) {
	t.Helper()
	ca, err := testpki.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	tlsCfg, err := ca.ServerTLS("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", tlsCfg, responder)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := NewClient(WithTLSConfig(ca.ClientTLS()))
	return srv, client
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestPOSTExchangeOverTLS(t *testing.T) {
	srv, client := startTLSServer(t, echoResponder("192.0.2.77"))
	resp, err := client.Query(testCtx(t), srv.URL(), "pool.ntp.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	addrs := resp.AnswerAddrs()
	if len(addrs) != 1 || addrs[0] != netip.MustParseAddr("192.0.2.77") {
		t.Fatalf("addrs = %v", addrs)
	}
	if srv.Handler().Requests() != 1 {
		t.Errorf("requests = %d", srv.Handler().Requests())
	}
}

func TestGETExchangeOverTLS(t *testing.T) {
	ca, err := testpki.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	tlsCfg, err := ca.ServerTLS("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", tlsCfg, echoResponder("192.0.2.78"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	getClient := NewClient(WithTLSConfig(ca.ClientTLS()), WithMethod(MethodGET))
	resp, err := getClient.Query(testCtx(t), srv.URL(), "pool.ntp.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.AnswerAddrs()) != 1 {
		t.Fatalf("GET answers = %v", resp.AnswerAddrs())
	}
}

func TestUntrustedCARejected(t *testing.T) {
	srv, _ := startTLSServer(t, echoResponder("192.0.2.79"))
	otherCA, err := testpki.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	badClient := NewClient(WithTLSConfig(otherCA.ClientTLS()))
	_, err = badClient.Query(testCtx(t), srv.URL(), "pool.ntp.test.", dnswire.TypeA)
	if err == nil {
		t.Fatal("exchange succeeded with untrusted CA — channel authentication broken")
	}
}

func TestServFailOnResolverError(t *testing.T) {
	failing := ResponderFunc(func(context.Context, *dnswire.Message) (*dnswire.Message, error) {
		return nil, errors.New("backend exploded")
	})
	srv, client := startTLSServer(t, failing)
	resp, err := client.Query(testCtx(t), srv.URL(), "pool.ntp.test.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("DoH must deliver SERVFAIL over HTTP 200, got transport error %v", err)
	}
	if resp.Header.RCode != dnswire.RCodeServFail {
		t.Fatalf("rcode = %v, want SERVFAIL", resp.Header.RCode)
	}
}

func TestPlainHTTPServerForTests(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil, echoResponder("192.0.2.80"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	if !strings.HasPrefix(srv.URL(), "http://") {
		t.Fatalf("URL = %s", srv.URL())
	}
	client := NewClient()
	resp, err := client.Query(testCtx(t), srv.URL(), "x.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.AnswerAddrs()) != 1 {
		t.Fatal("no answer over plain HTTP")
	}
}

func TestHandlerRejectsBadRequests(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil, echoResponder("192.0.2.81"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	cases := []struct {
		name       string
		method     string
		url        string
		body       string
		contentTyp string
		wantStatus int
	}{
		{"GET without dns param", http.MethodGet, srv.URL(), "", "", http.StatusBadRequest},
		{"GET with bad base64", http.MethodGet, srv.URL() + "?dns=!!!", "", "", http.StatusBadRequest},
		{"GET with garbage message", http.MethodGet, srv.URL() + "?dns=AAAA", "", "", http.StatusBadRequest},
		{"POST wrong content type", http.MethodPost, srv.URL(), "x", "text/plain", http.StatusUnsupportedMediaType},
		{"PUT not allowed", http.MethodPut, srv.URL(), "", "", http.StatusMethodNotAllowed},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			req, err := http.NewRequest(tt.method, tt.url, strings.NewReader(tt.body))
			if err != nil {
				t.Fatal(err)
			}
			if tt.contentTyp != "" {
				req.Header.Set("Content-Type", tt.contentTyp)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tt.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tt.wantStatus)
			}
		})
	}
	if srv.Handler().Failures() == 0 {
		t.Error("failure counter never incremented")
	}
}

func TestCacheControlReflectsTTL(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil, echoResponder("192.0.2.82"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	query, err := dnswire.NewQuery("x.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := query.Encode()
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL(), strings.NewReader(string(wire)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", MediaType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); cc != "max-age=60" {
		t.Fatalf("Cache-Control = %q, want max-age=60", cc)
	}
}

// TestServerMediaTypeTolerance checks the POST Content-Type gate parses
// the media type per RFC 9110 instead of comparing bytes: parameters and
// case variants of application/dns-message are valid, other types are
// not.
func TestServerMediaTypeTolerance(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil, echoResponder("192.0.2.85"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	query, err := dnswire.NewQuery("mt.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := query.Encode()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name        string
		contentType string
		wantStatus  int
	}{
		{"exact", "application/dns-message", http.StatusOK},
		{"with charset parameter", "application/dns-message; charset=utf-8", http.StatusOK},
		{"mixed case", "Application/DNS-Message", http.StatusOK},
		{"upper case with parameter", "APPLICATION/DNS-MESSAGE; q=1", http.StatusOK},
		{"wrong type", "text/plain", http.StatusUnsupportedMediaType},
		{"prefix but different type", "application/dns-message-x", http.StatusUnsupportedMediaType},
		{"empty", "", http.StatusUnsupportedMediaType},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodPost, srv.URL(), strings.NewReader(string(wire)))
			if err != nil {
				t.Fatal(err)
			}
			if tt.contentType != "" {
				req.Header.Set("Content-Type", tt.contentType)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tt.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tt.wantStatus)
			}
		})
	}
}

// TestClientMediaTypeTolerance checks the client accepts response
// Content-Type values with parameters and case variants — real DoH
// deployments send them — while still rejecting non-DNS types.
func TestClientMediaTypeTolerance(t *testing.T) {
	cases := []struct {
		name        string
		contentType string
		wantErr     bool
	}{
		{"with charset parameter", "application/dns-message; charset=utf-8", false},
		{"mixed case", "Application/DNS-Message", false},
		{"wrong type", "text/html", true},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			// A hand-rolled endpoint: decode the POST body, answer it,
			// and stamp the response with the Content-Type under test.
			mux := http.NewServeMux()
			mux.HandleFunc(DefaultPath, func(w http.ResponseWriter, r *http.Request) {
				body, err := io.ReadAll(r.Body)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				q, err := dnswire.Decode(body)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				resp := dnswire.NewResponse(q)
				resp.Answers = append(resp.Answers,
					dnswire.AddressRecord(q.Questions[0].Name, netip.MustParseAddr("192.0.2.86"), 60))
				wire, err := resp.Encode()
				if err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
					return
				}
				w.Header().Set("Content-Type", tt.contentType)
				_, _ = w.Write(wire)
			})
			hs := httptest.NewServer(mux)
			t.Cleanup(hs.Close)

			client := NewClient()
			resp, err := client.Query(testCtx(t), hs.URL+DefaultPath, "mt.test.", dnswire.TypeA)
			if tt.wantErr {
				if !errors.Is(err, ErrBadContentType) {
					t.Fatalf("err = %v, want ErrBadContentType", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("content type %q rejected: %v", tt.contentType, err)
			}
			if len(resp.AnswerAddrs()) != 1 {
				t.Fatalf("answers = %v", resp.AnswerAddrs())
			}
		})
	}
}

// TestGETWireIDIsZero is the RFC 8484 §4.1 cache-friendliness round
// trip: the GET client zeroes the transaction ID on the wire form (so
// identical questions produce identical URLs and the server's
// Cache-Control can yield HTTP cache hits), the server's ID-0 echo is
// accepted, and the POST path keeps its random ID.
func TestGETWireIDIsZero(t *testing.T) {
	var wireIDs []uint16
	capture := ResponderFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		wireIDs = append(wireIDs, q.Header.ID)
		return echoResponder("192.0.2.87").Respond(context.Background(), q)
	})
	srv, err := NewServer("127.0.0.1:0", nil, capture)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	query, err := dnswire.NewQuery("id0.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	query.Header.ID = 0xBEEF

	getClient := NewClient(WithMethod(MethodGET))
	resp, err := getClient.Exchange(testCtx(t), query, srv.URL())
	if err != nil {
		t.Fatalf("GET round trip with ID-0 wire form: %v", err)
	}
	if len(resp.AnswerAddrs()) != 1 {
		t.Fatalf("answers = %v", resp.AnswerAddrs())
	}
	if query.Header.ID != 0xBEEF {
		t.Fatalf("caller's query mutated: ID = %#x", query.Header.ID)
	}

	postClient := NewClient()
	if _, err := postClient.Exchange(testCtx(t), query, srv.URL()); err != nil {
		t.Fatal(err)
	}

	if len(wireIDs) != 2 {
		t.Fatalf("server saw %d queries, want 2", len(wireIDs))
	}
	if wireIDs[0] != 0 {
		t.Errorf("GET wire ID = %#x, want 0 (RFC 8484 §4.1)", wireIDs[0])
	}
	if wireIDs[1] != 0xBEEF {
		t.Errorf("POST wire ID = %#x, want the caller's 0xBEEF", wireIDs[1])
	}
}

// TestOversizedGETRejected checks the GET ?dns= parameter is capped
// before base64 decoding, mirroring the POST body's 64 KiB bound.
func TestOversizedGETRejected(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil, echoResponder("192.0.2.88"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	// One base64 character past the cap: would decode to > 64 KiB.
	huge := strings.Repeat("A", base64.RawURLEncoding.EncodedLen(dnswire.MaxMessageSize)+1)
	resp, err := http.Get(srv.URL() + "?dns=" + huge)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestURITooLong {
		t.Fatalf("status = %d, want %d", resp.StatusCode, http.StatusRequestURITooLong)
	}
	if srv.Handler().Failures() != 1 {
		t.Errorf("failures = %d, want 1", srv.Handler().Failures())
	}
}

func TestClientValidatesQuestionEcho(t *testing.T) {
	// A malicious DoH server answering a different question must be
	// rejected client-side.
	evil := ResponderFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		resp := dnswire.NewResponse(q)
		resp.Questions = []dnswire.Question{{Name: "evil.test.", Type: dnswire.TypeA, Class: dnswire.ClassINET}}
		return resp, nil
	})
	srv, client := startTLSServer(t, evil)
	_, err := client.Query(testCtx(t), srv.URL(), "pool.ntp.test.", dnswire.TypeA)
	if err == nil {
		t.Fatal("client accepted a response for a different question")
	}
}

func TestConcurrentExchanges(t *testing.T) {
	srv, client := startTLSServer(t, echoResponder("192.0.2.83"))
	ctx := testCtx(t)
	const n = 16
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := client.Query(ctx, srv.URL(), "pool.ntp.test.", dnswire.TypeA)
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Handler().Requests(); got != n {
		t.Fatalf("requests = %d, want %d", got, n)
	}
}

func TestPaddingRoundTrip(t *testing.T) {
	// A padding client gets padded answers; the response still validates
	// and the HTTP body sizes are block-aligned.
	var bodySize int
	capture := ResponderFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		wire, err := q.Encode()
		if err != nil {
			return nil, err
		}
		bodySize = len(wire)
		resp := dnswire.NewResponse(q)
		resp.Answers = append(resp.Answers,
			dnswire.AddressRecord(q.Questions[0].Name, netip.MustParseAddr("192.0.2.90"), 60))
		return resp, nil
	})
	srv, err := NewServer("127.0.0.1:0", nil, capture)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	client := NewClient(WithPadding())
	resp, err := client.Query(testCtx(t), srv.URL(), "pool.ntp.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if bodySize%dnswire.QueryPaddingBlock != 0 {
		t.Errorf("query body %d not padded to %d blocks", bodySize, dnswire.QueryPaddingBlock)
	}
	respWire, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(respWire)%dnswire.ResponsePaddingBlock != 0 {
		t.Errorf("response %d not padded to %d blocks", len(respWire), dnswire.ResponsePaddingBlock)
	}
	if len(resp.AnswerAddrs()) != 1 {
		t.Fatal("padding corrupted the answer")
	}
}

func TestUnpaddedClientGetsUnpaddedResponse(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil, echoResponder("192.0.2.91"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := NewClient()
	resp, err := client.Query(testCtx(t), srv.URL(), "pool.ntp.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := resp.EDNSOptions()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range opts {
		if o.Code == dnswire.EDNSOptionPadding {
			t.Fatal("server padded a response to an unpadded client")
		}
	}
}

// TestColdBurstDialsFewConnections sends a burst of exchanges through a
// client that has no connection yet. All of them must be under way at
// once — the responder releases none before the last has arrived — on no
// more than connsPerResolver connections: an unlimited transport dials
// one per request and drops most of them again as soon as HTTP/2 is
// negotiated.
func TestColdBurstDialsFewConnections(t *testing.T) {
	const burst = 4 * connsPerResolver
	var arrived, dialed atomic.Int32
	all := make(chan struct{})
	responder := echoResponder("192.0.2.84")
	ts := httptest.NewUnstartedServer(NewHandler(ResponderFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		if arrived.Add(1) == burst {
			close(all)
		}
		select {
		case <-all:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return responder.Respond(ctx, q)
	})))
	ts.EnableHTTP2 = true
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			dialed.Add(1)
		}
	}
	ts.StartTLS()
	defer ts.Close()
	roots := x509.NewCertPool()
	roots.AddCert(ts.Certificate())
	client := NewClient(WithTLSConfig(&tls.Config{RootCAs: roots}))

	ctx := testCtx(t)
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		go func() {
			_, err := client.Query(ctx, ts.URL, "pool.ntp.test.", dnswire.TypeA)
			errs <- err
		}()
	}
	for i := 0; i < burst; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := dialed.Load(); got > connsPerResolver {
		t.Errorf("a cold burst of %d exchanges dialed %d connections, want at most %d", burst, got, connsPerResolver)
	}
}
