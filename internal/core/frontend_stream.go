package core

import (
	"context"
	"io"
	"net"
	"net/http"
	"time"

	"dohpool/internal/dnswire"
	"dohpool/internal/doh"
)

// This file is the stream half of the wire-format answer cache: the
// same pre-encoded entries the UDP reader serves are copied onto TCP,
// DoT and DoH responses with the same three-field patch (transaction
// ID, RD/CD echo, aged TTLs). The TCP/DoT loop serves a cached hit as
// one Write of the entry's pre-framed form (RFC 7766 length prefix
// included), touching neither the decoder nor the encoder and
// allocating nothing in steady state; DoH writes the unframed form
// straight to the ResponseWriter. Anything the strict parser cannot
// prove, or the cache does not hold, falls through to the slow path
// (Frontend.respond), which decodes the query and looks the pool up.

// streamScratch is the pooled per-connection working set of the stream
// fast path: the frame read buffer, the cache-key scratch and the
// response copy target. Like udpPacket, the key lives here rather than
// on the stack because it crosses the wireBackend interface boundary,
// which defeats escape analysis.
type streamScratch struct {
	// q buffers one length-prefixed inbound frame: 2 prefix bytes then
	// up to udpPacketBuf of query. Queries longer than that (legal on a
	// stream, vanishingly rare) fall back to a heap buffer.
	q [2 + udpPacketBuf]byte
	// key is parseWireQuery's cache-key scratch.
	key [wireKeyMax]byte
	// out is the response copy target, grown on demand and retained
	// across queries and connections.
	out []byte
}

// outBuf returns scratch capacity for an n-byte response, growing the
// retained buffer when a pool outgrows it (amortised: steady state
// serves from the same backing array forever).
func (s *streamScratch) outBuf(n int) []byte {
	if cap(s.out) < n {
		s.out = make([]byte, 0, n+512)
	}
	return s.out[:n]
}

// serveStreamConn answers queries on one RFC 7766 persistent connection
// (plain TCP or DoT) until the peer disconnects or goes idle. On a DoT
// connection the first read also drives the TLS handshake, so the idle
// deadline bounds handshake time too. It reads raw frames and serves
// cache hits without constructing a single message value, falling back
// per query to the slow path.
func (f *Frontend) serveStreamConn(conn net.Conn, inst *protoInstruments) {
	s := f.streamPool.Get().(*streamScratch)
	defer f.streamPool.Put(s)
	for {
		_ = conn.SetReadDeadline(time.Now().Add(f.cfg.TCPIdleTimeout))
		q, err := readStreamFrame(conn, s)
		if err != nil {
			return
		}
		served, err := f.answerStreamWire(conn, q, s, inst)
		if err != nil {
			return
		}
		if served {
			continue
		}
		// Slow path: decode the frame we already read and answer through
		// the regular responder. An undecodable frame closes the
		// connection.
		query, err := dnswire.Decode(q)
		if err != nil {
			return
		}
		if !f.respondStream(conn, query, q, inst) {
			return
		}
	}
}

// readStreamFrame reads one RFC 7766 length-prefixed message into the
// scratch buffer (or, for frames larger than the scratch, a one-off
// heap buffer) and returns the message bytes.
//
//dohlint:noalloc
func readStreamFrame(conn net.Conn, s *streamScratch) ([]byte, error) {
	if _, err := io.ReadFull(conn, s.q[:2]); err != nil {
		return nil, err
	}
	n := int(s.q[0])<<8 | int(s.q[1])
	buf := s.q[2 : 2+udpPacketBuf]
	if n > udpPacketBuf {
		// Oversized frames (legal on a stream, vanishingly rare) pay a
		// one-off heap buffer; steady state stays on pooled scratch.
		// dohlint:allow(noalloc)
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(conn, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// answerStreamWire serves one stream query from the wire cache,
// reporting whether it was served and any connection-fatal write error.
// A miss (or unprovable query) returns (false, nil) so the caller can
// fall back; nothing is written in that case. It allocates nothing in
// steady state: the response is one copy of the entry's pre-framed form
// into pooled scratch, patched in place, then one Write.
//
//dohlint:noalloc
func (f *Frontend) answerStreamWire(conn net.Conn, q []byte, s *streamScratch, inst *protoInstruments) (bool, error) {
	if f.wire == nil {
		return false, nil
	}
	key, _, _, ok := parseWireQuery(q, s.key[:])
	if !ok {
		return false, nil
	}
	we, age, ok := f.wire.WireLookup(key, false)
	if !ok {
		return false, nil
	}
	// Streams never truncate — the slow path writes the full message
	// whatever payload size an EDNS OPT advertised — so the framed full
	// form is always the right one (and always fits the 64 KiB frame).
	out := s.outBuf(len(we.FullFramed)) // dohlint:allow(noalloc) — amortised growth inside outBuf
	copy(out, we.FullFramed)
	body := out[2:]
	dnswire.PatchID(body, uint16(q[0])<<8|uint16(q[1]))
	dnswire.EchoFlags(body, q)
	dnswire.PatchAnswerTTLs(body, we.TTLOffsets, agedTTL(we.TTL, age))

	// Committed: mirror the fast path's UDP instrument sequence for one
	// answered query on this transport.
	inst.queries.Inc()
	inst.inflight.Inc()
	_, err := conn.Write(out)
	if err == nil {
		f.served.Add(1)
		f.inst.rcode(dnswire.RCodeSuccess).Inc()
	} else if !f.closed.Load() {
		inst.writeErrs.Inc()
	}
	inst.inflight.Dec()
	return true, err
}

// serveDoH is the doh.Handler.Wire hook. A cache hit is answered by
// answerDoHWire; any other query without EDNS options takes the slow path
// right here, on the bytes it arrived in, so that its answer too is a
// patched copy of the wire entry. Queries with options are left to the
// handler, which shapes their answers (RFC 8467 padding) from the message
// frontendResponder returns, as are undecodable ones, which it refuses.
func (f *Frontend) serveDoH(ctx context.Context, w http.ResponseWriter, raw []byte) bool {
	if f.answerDoHWire(w, raw) {
		return true
	}
	query, err := dnswire.Decode(raw)
	if err != nil {
		return false
	}
	if opts, err := query.EDNSOptions(); err != nil || len(opts) > 0 {
		return false
	}
	ans := f.respond(ctx, query, raw, dnswire.MaxMessageSize, &f.inst.doh)
	_ = doh.WriteResponse(w, ans.framed[2:], ans.maxAge) // the client went away; nothing to tell it
	return true
}

// answerDoHWire serves a cache hit by writing the patched pre-encoded body straight to the ResponseWriter,
// with the same headers the slow path would set. Queries carrying any
// EDNS option data fall through — the slow path reacts to options
// (RFC 8467 padding in particular), and the fast path must never serve
// bytes the slow path would have shaped differently.
//
// Unlike the UDP and stream serves this one cannot be allocation-free
// end to end: doh.WriteResponse builds header values and net/http copies
// them. Everything on this side of that HTTP boundary — parse, lookup,
// copy, patch — holds the noalloc contract.
//
//dohlint:noalloc
func (f *Frontend) answerDoHWire(w http.ResponseWriter, query []byte) bool {
	if f.wire == nil {
		return false
	}
	s := f.streamPool.Get().(*streamScratch)
	defer f.streamPool.Put(s)
	key, _, optData, ok := parseWireQuery(query, s.key[:])
	if !ok || optData != 0 {
		return false
	}
	we, age, ok := f.wire.WireLookup(key, false)
	if !ok {
		return false
	}
	body := s.outBuf(len(we.Full)) // dohlint:allow(noalloc) — amortised growth inside outBuf
	copy(body, we.Full)
	dnswire.PatchID(body, uint16(query[0])<<8|uint16(query[1]))
	dnswire.EchoFlags(body, query)
	ttl := agedTTL(we.TTL, age)
	dnswire.PatchAnswerTTLs(body, we.TTLOffsets, ttl)

	inst := &f.inst.doh
	inst.queries.Inc()
	inst.inflight.Inc()
	// max-age mirrors the slow path's resp.MinAnswerTTL(0): the aged
	// answer TTL, or 0 for an answerless response.
	maxAge := uint32(0)
	if len(we.TTLOffsets) > 0 {
		maxAge = ttl
	}
	if err := doh.WriteResponse(w, body, maxAge); err == nil {
		f.served.Add(1)
		f.inst.rcode(dnswire.RCodeSuccess).Inc()
	}
	inst.inflight.Dec()
	return true
}
