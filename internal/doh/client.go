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

	var req *http.Request
	switch c.method {
	case MethodGET:
		u := url + "?dns=" + base64.RawURLEncoding.EncodeToString(wire)
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	default:
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(wire))
		if err == nil {
			req.Header.Set("Content-Type", MediaType)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("build request: %w", err)
	}
	req.Header.Set("Accept", MediaType)

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
	body, err := io.ReadAll(io.LimitReader(httpResp.Body, dnswire.MaxMessageSize+1))
	if err != nil {
		return nil, fmt.Errorf("read doh response: %w", err)
	}
	if len(body) > dnswire.MaxMessageSize {
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
