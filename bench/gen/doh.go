package gen

import (
	"bytes"
	"crypto/tls"
	"errors"
	"io"
	"net/http"
	"time"

	"dohpool/bench/dnsmsg"
	"dohpool/bench/trace"
)

// NewDoHClient returns the one HTTP/2 client a DoH workload's workers
// share, so they multiplex one connection as a browser's resolver would.
func NewDoHClient(tlsCfg *tls.Config, timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout:   timeout,
		Transport: &http.Transport{TLSClientConfig: tlsCfg, ForceAttemptHTTP2: true},
	}
}

// DoH POSTs queries to an RFC 8484 endpoint. net/http allocates per
// request; that cost is the same in every run and shows in
// gen.cpu_us_per_q.
type DoH struct {
	client *http.Client
	url    string
	names  *Names
	check  *dnsmsg.Checker
	base   time.Time
	send   []byte
	recv   []byte
	body   bytes.Reader
}

// NewDoH returns one worker's exchanger on the shared client.
func NewDoH(client *http.Client, url string, names *Names, check *dnsmsg.Checker, base time.Time) *DoH {
	return &DoH{client: client, url: url, names: names, check: check, base: base,
		send: make([]byte, 0, 512), recv: make([]byte, 4096)}
}

const dnsMessage = "application/dns-message"

// Exchange implements Exchanger. The HTTP client owns both the send and
// the wait, so the send span is empty and the wait span covers the round
// trip.
func (d *DoH) Exchange(name uint32, id uint16, st *trace.Stamps) Outcome {
	d.send = append(d.send[:0], d.names.Queries[name]...)
	dnsmsg.SetID(d.send, id)
	d.body.Reset(d.send)
	req, err := http.NewRequest(http.MethodPost, d.url, &d.body)
	if err != nil {
		return IOError
	}
	req.Header.Set("Content-Type", dnsMessage)
	req.Header.Set("Accept", dnsMessage)
	if st != nil {
		st[1] = int64(time.Since(d.base))
		st[2] = st[1]
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return failure(err)
	}
	n, err := io.ReadFull(resp.Body, d.recv)
	_ = resp.Body.Close()
	if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		// nil means the body overflowed recv.
		return failure(err)
	}
	if st != nil {
		st[3] = int64(time.Since(d.base))
	}
	if resp.StatusCode != http.StatusOK {
		return IOError
	}
	return Outcome(d.check.Check(d.recv[:n], d.send, int(d.names.Rcode[name])))
}

// Close implements Exchanger; the shared client is closed by its owner.
func (d *DoH) Close() {}
