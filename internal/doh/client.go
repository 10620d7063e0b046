package doh

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"dohpool/internal/dnswire"
	"dohpool/internal/transport"
)

// Client errors.
var (
	// ErrHTTPStatus reports a non-200 DoH response.
	ErrHTTPStatus = errors.New("doh server returned non-200 status")
	// ErrBadContentType reports a response without the DNS media type.
	ErrBadContentType = errors.New("doh response has wrong content type")
)

// Method selects how the client sends queries.
type Method int

// Query methods.
const (
	// MethodPOST sends the query in the request body (RFC 8484 §4.1).
	MethodPOST Method = iota + 1
	// MethodGET sends the query base64url-encoded in the URL. Cacheable by
	// HTTP intermediaries.
	MethodGET
)

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithTLSConfig sets the TLS configuration (testbed CA trust).
func WithTLSConfig(cfg *tls.Config) ClientOption {
	return func(c *Client) { c.tlsCfg = cfg }
}

// WithMethod selects GET or POST (default POST).
func WithMethod(m Method) ClientOption {
	return func(c *Client) { c.method = m }
}

// WithTimeout bounds each exchange (default transport.DefaultTimeout).
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// WithHTTPClient injects a fully custom HTTP client (attack wrappers and
// tests).
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.http = hc }
}

// WithPadding pads every query to the RFC 8467 recommended 128-octet
// blocks (RFC 7830 EDNS Padding), so the TLS record sizes of different
// pool domains are indistinguishable on the wire.
func WithPadding() ClientOption {
	return func(c *Client) { c.pad = true }
}

// connsPerResolver is how many connections the default transport opens
// and keeps to one resolver. HTTP/2 carries a resolver's whole load on
// one or two (core's maxInlineGenerations is sized to that); the rest is
// headroom for a resolver that allows few streams per connection. A
// resolver that only speaks HTTP/1.1 is limited to this many exchanges
// at a time; RFC 8484 §5.2 recommends HTTP/2 as the minimum.
const connsPerResolver = 4

// Client queries DoH servers. One Client may talk to any number of
// servers; per-resolver identity lives in the URL passed to Exchange.
type Client struct {
	http    *http.Client
	tlsCfg  *tls.Config
	method  Method
	timeout time.Duration
	pad     bool
	// endpoints caches every endpoint URL this client has been asked to
	// query in parsed form (string → *url.URL).
	endpoints sync.Map
}

// NewClient builds a DoH client.
func NewClient(opts ...ClientOption) *Client {
	c := &Client{method: MethodPOST, timeout: transport.DefaultTimeout}
	for _, opt := range opts {
		opt(c)
	}
	if c.http == nil {
		tr := &http.Transport{
			TLSClientConfig:     c.tlsCfg,
			ForceAttemptHTTP2:   true,
			MaxIdleConnsPerHost: connsPerResolver,
			// Without a limit the transport dials a connection for every
			// request that finds none free: a cold start with a burst of
			// misses costs one TLS handshake per miss and resolver, all but
			// connsPerResolver of them thrown away as soon as HTTP/2 shows
			// they were not needed.
			MaxConnsPerHost: connsPerResolver,
			IdleConnTimeout: 30 * time.Second,
		}
		c.http = &http.Client{Transport: tr}
	}
	return c
}

// endpoint returns rawURL parsed, parsing each distinct endpoint once: a
// client talks to the handful of resolvers it was configured with, and
// url.Parse was a measurable share of every exchange.
func (c *Client) endpoint(rawURL string) (*url.URL, error) {
	if u, ok := c.endpoints.Load(rawURL); ok {
		return u.(*url.URL), nil
	}
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, err
	}
	c.endpoints.Store(rawURL, u)
	return u, nil
}

// mediaTypeValue is the one header value every request carries, shared
// between requests: net/http reads header values and never edits them.
var mediaTypeValue = []string{MediaType}

// newRequest assembles the RFC 8484 request for an encoded query: what
// http.NewRequestWithContext would build, minus the URL parse and the
// per-request header values.
func (c *Client) newRequest(ctx context.Context, rawURL string, wire []byte) (*http.Request, error) {
	u, err := c.endpoint(rawURL)
	if err != nil {
		return nil, err
	}
	req := &http.Request{
		Method: http.MethodPost,
		URL:    u,
		Header: http.Header{"Accept": mediaTypeValue},
	}
	if c.method == MethodGET {
		get := *u
		get.RawQuery = "dns=" + base64.RawURLEncoding.EncodeToString(wire)
		req.Method, req.URL = http.MethodGet, &get
	} else {
		req.Header["Content-Type"] = mediaTypeValue
		req.ContentLength = int64(len(wire))
		// GetBody lets the HTTP/2 transport replay the request on a fresh
		// connection after a GOAWAY, as it can for http.NewRequest's.
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(wire)), nil }
		req.Body, _ = req.GetBody()
	}
	return req.WithContext(ctx), nil
}

// readMessage reads one DNS message body of the announced length in a
// single buffer of exactly that size; with none announced (-1, or the 0 of
// a hand-built http.Response) it falls back to a growing read. tooLarge
// reports a body beyond the 64 KiB a DNS message can span, announced or
// actual.
func readMessage(body io.Reader, contentLength int64) (msg []byte, tooLarge bool, err error) {
	if contentLength > dnswire.MaxMessageSize {
		return nil, true, nil
	}
	if contentLength > 0 {
		msg = make([]byte, contentLength)
		_, err = io.ReadFull(body, msg)
		return msg, false, err
	}
	msg, err = io.ReadAll(io.LimitReader(body, dnswire.MaxMessageSize+1))
	return msg, len(msg) > dnswire.MaxMessageSize, err
}

// Exchange sends query to the DoH endpoint at url and returns the decoded,
// validated response.
func (c *Client) Exchange(ctx context.Context, query *dnswire.Message, url string) (*dnswire.Message, error) {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	if c.pad {
		padded := query.Copy()
		if _, ok := padded.EDNSSize(); !ok {
			padded.SetEDNS(dnswire.DefaultEDNSSize)
		}
		if err := padded.PadTo(dnswire.QueryPaddingBlock); err == nil {
			query = padded
		}
	}
	wireQuery := query
	if c.method == MethodGET && query.Header.ID != 0 {
		// RFC 8484 §4.1: GET queries use DNS ID 0 on the wire so the
		// same question always produces the same URL — a random ID makes
		// every request a unique cache key and the server's
		// Cache-Control header can never yield an HTTP cache hit.
		wireQuery = query.Copy()
		wireQuery.Header.ID = 0
	}
	wire, err := wireQuery.Encode()
	if err != nil {
		return nil, fmt.Errorf("encode query: %w", err)
	}
	req, err := c.newRequest(ctx, url, wire)
	if err != nil {
		return nil, fmt.Errorf("build request: %w", err)
	}

	httpResp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("doh exchange with %s: %w", url, err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %w", url, httpResp.StatusCode, ErrHTTPStatus)
	}
	if ct := httpResp.Header.Get("Content-Type"); !isDNSMediaType(ct) {
		return nil, fmt.Errorf("%s: content-type %q: %w", url, ct, ErrBadContentType)
	}
	body, tooLarge, err := readMessage(httpResp.Body, httpResp.ContentLength)
	if err != nil {
		return nil, fmt.Errorf("read doh response: %w", err)
	}
	if tooLarge {
		return nil, transport.ErrResponseTooLarge
	}
	resp, err := dnswire.Decode(body)
	if err != nil {
		return nil, fmt.Errorf("decode doh response: %w", err)
	}
	// GET exchanges went out with ID 0 on the wire, so the echo comes
	// back as ID 0 — ValidateGET accepts it against the caller's query.
	validate := transport.Validate
	if c.method == MethodGET {
		validate = transport.ValidateGET
	}
	if err := validate(query, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Query is a convenience wrapper: build a query for (name, typ), exchange
// it with the endpoint, return the response.
func (c *Client) Query(ctx context.Context, url, name string, typ dnswire.Type) (*dnswire.Message, error) {
	query, err := dnswire.NewQuery(name, typ)
	if err != nil {
		return nil, err
	}
	return c.Exchange(ctx, query, url)
}
