// Package doh implements DNS-over-HTTPS per RFC 8484: a server wrapping a
// recursive resolver, and a client that queries such servers. These are
// the distributed DoH resolvers of the paper's step 2 — each one an
// independent vantage point with an authenticated channel to the client.
package doh

import (
	"context"
	"crypto/tls"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"log"
	"mime"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"dohpool/internal/dnswire"
)

// MediaType is the RFC 8484 media type for DNS messages in HTTP bodies.
const MediaType = "application/dns-message"

// DefaultPath is the conventional DoH endpoint path.
const DefaultPath = "/dns-query"

// maxRequestBytes bounds POST bodies (a DNS message cannot exceed 64 KiB).
const maxRequestBytes = dnswire.MaxMessageSize

// isDNSMediaType reports whether a Content-Type header value names the
// RFC 8484 media type. Media types compare case-insensitively and may
// carry parameters (RFC 9110 §8.3.1) — "Application/DNS-Message" and
// "application/dns-message; charset=utf-8" are both the DNS media type,
// so byte equality against MediaType is the wrong test on either side
// of the exchange.
func isDNSMediaType(value string) bool {
	if value == MediaType {
		return true // what every DoH peer actually sends; skip the parser
	}
	mt, _, err := mime.ParseMediaType(value)
	return err == nil && mt == MediaType
}

// QueryResponder answers decoded DNS queries; the recursive resolver
// satisfies it via a small adapter, and attack wrappers interpose here to
// model a compromised resolver.
type QueryResponder interface {
	Respond(ctx context.Context, query *dnswire.Message) (*dnswire.Message, error)
}

// ResponderFunc adapts a function to QueryResponder.
type ResponderFunc func(ctx context.Context, query *dnswire.Message) (*dnswire.Message, error)

// Respond implements QueryResponder.
func (f ResponderFunc) Respond(ctx context.Context, query *dnswire.Message) (*dnswire.Message, error) {
	return f(ctx, query)
}

// Compile-time interface checks.
var (
	_ QueryResponder = ResponderFunc(nil)
	_ http.Handler   = (*Handler)(nil)
)

// Handler serves RFC 8484 DoH requests over HTTP.
type Handler struct {
	responder QueryResponder

	// Wire, when non-nil, gets first crack at every extracted query with
	// its raw bytes, before the message decoder runs. Returning true
	// means Wire wrote the complete HTTP response (headers and body);
	// returning false falls through to the regular decode → respond →
	// encode path. The frontend installs its wire-cache fast path here.
	Wire func(ctx context.Context, w http.ResponseWriter, query []byte) bool

	requests atomic.Uint64
	failures atomic.Uint64
}

// NewHandler wraps a responder in an RFC 8484 HTTP handler.
func NewHandler(responder QueryResponder) *Handler {
	return &Handler{responder: responder}
}

// Requests returns the number of DoH requests served.
func (h *Handler) Requests() uint64 { return h.requests.Load() }

// Failures returns the number of requests that could not be served.
func (h *Handler) Failures() uint64 { return h.failures.Load() }

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.requests.Add(1)
	wire, status, err := extractQuery(r)
	if err != nil {
		h.failures.Add(1)
		http.Error(w, err.Error(), status)
		return
	}
	if h.Wire != nil && h.Wire(r.Context(), w, wire) {
		return
	}
	query, err := dnswire.Decode(wire)
	if err != nil {
		h.failures.Add(1)
		http.Error(w, "malformed DNS message", http.StatusBadRequest)
		return
	}
	resp, err := h.responder.Respond(r.Context(), query)
	if err != nil {
		// Per RFC 8484 §4.2.1, resolution failures still produce a DNS
		// response (SERVFAIL) with HTTP 200.
		resp = dnswire.NewErrorResponse(query, dnswire.RCodeServFail)
	}
	if queryPadded(query) {
		// RFC 8467 §4.2: a server MUST pad responses to clients that
		// padded their queries (468-octet blocks).
		padded := resp.Copy()
		if _, ok := padded.EDNSSize(); !ok {
			padded.SetEDNS(dnswire.DefaultEDNSSize)
		}
		if err := padded.PadTo(dnswire.ResponsePaddingBlock); err == nil {
			resp = padded
		}
	}
	respWire, err := resp.Encode()
	if err != nil {
		h.failures.Add(1)
		http.Error(w, "response encoding failed", http.StatusInternalServerError)
		return
	}
	_ = WriteResponse(w, respWire, resp.MinAnswerTTL(0))
}

// WriteResponse writes one encoded DNS message as an RFC 8484 response
// body; maxAge, the smallest answer TTL, becomes its HTTP freshness
// lifetime (§5.1).
func WriteResponse(w http.ResponseWriter, body []byte, maxAge uint32) error {
	h := w.Header()
	h.Set("Content-Type", MediaType)
	h.Set("Cache-Control", "max-age="+strconv.FormatUint(uint64(maxAge), 10))
	h.Set("Content-Length", strconv.Itoa(len(body)))
	_, err := w.Write(body)
	return err
}

// queryPadded reports whether the client used the EDNS Padding option.
func queryPadded(query *dnswire.Message) bool {
	opts, err := query.EDNSOptions()
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

// extractQuery pulls the wire-format DNS query out of a GET ?dns= or POST
// body request per RFC 8484 §4.1.
func extractQuery(r *http.Request) ([]byte, int, error) {
	switch r.Method {
	case http.MethodGet:
		b64 := r.URL.Query().Get("dns")
		if b64 == "" {
			return nil, http.StatusBadRequest, errors.New("missing dns query parameter")
		}
		// Enforce the POST body's 64 KiB message cap before decoding:
		// base64url inflates by 4/3, so bounding the encoded form bounds
		// the decoded message and an oversized parameter never allocates
		// past dnswire.MaxMessageSize.
		if len(b64) > base64.RawURLEncoding.EncodedLen(maxRequestBytes) {
			return nil, http.StatusRequestURITooLong, errors.New("dns parameter exceeds maximum message size")
		}
		wire, err := base64.RawURLEncoding.DecodeString(b64)
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("dns parameter: %w", err)
		}
		return wire, 0, nil
	case http.MethodPost:
		if ct := r.Header.Get("Content-Type"); !isDNSMediaType(ct) {
			return nil, http.StatusUnsupportedMediaType, fmt.Errorf("content-type %q", ct)
		}
		wire, tooLarge, err := readMessage(r.Body, r.ContentLength)
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("read body: %w", err)
		}
		if tooLarge {
			return nil, http.StatusRequestEntityTooLarge, errors.New("request too large")
		}
		return wire, 0, nil
	default:
		return nil, http.StatusMethodNotAllowed, fmt.Errorf("method %s", r.Method)
	}
}

// Server is a DoH resolver endpoint: an HTTPS listener serving a Handler.
type Server struct {
	handler *Handler
	httpSrv *http.Server
	ln      net.Listener
	done    chan struct{}
	useTLS  bool
}

// NewServer starts a DoH server on addr ("127.0.0.1:0" for ephemeral)
// using tlsCfg (nil serves plain HTTP — useful only for tests; the paper's
// security argument requires TLS).
func NewServer(addr string, tlsCfg *tls.Config, responder QueryResponder) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	handler := NewHandler(responder)
	mux := http.NewServeMux()
	mux.Handle(DefaultPath, handler)
	srv := &Server{
		handler: handler,
		httpSrv: &http.Server{
			Handler:           mux,
			TLSConfig:         tlsCfg,
			ReadHeaderTimeout: 5 * time.Second,
			// Handshake failures from probing clients are expected noise
			// in the adversarial testbed; keep them out of test output.
			ErrorLog: log.New(io.Discard, "", 0),
		},
		ln:     ln,
		done:   make(chan struct{}),
		useTLS: tlsCfg != nil,
	}
	go func() {
		defer close(srv.done)
		if tlsCfg != nil {
			_ = srv.httpSrv.ServeTLS(ln, "", "")
		} else {
			_ = srv.httpSrv.Serve(ln)
		}
	}()
	return srv, nil
}

// Addr returns the host:port the server listens on.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the full DoH endpoint URL.
func (s *Server) URL() string {
	scheme := "https"
	if !s.useTLS {
		scheme = "http"
	}
	return scheme + "://" + s.Addr() + DefaultPath
}

// Handler exposes the underlying handler (for stats).
func (s *Server) Handler() *Handler { return s.handler }

// Close shuts the server down and waits for the serve loop to exit. It
// closes connections immediately: DoH exchanges are single
// request/response pairs, so there is nothing graceful to wait for in
// the testbed.
func (s *Server) Close() error {
	err := s.httpSrv.Close()
	<-s.done
	return err
}
