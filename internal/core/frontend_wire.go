package core

import (
	"time"

	"dohpool/internal/dnscache"
	"dohpool/internal/dnswire"
)

// This file is the frontend half of the wire-format answer cache: a UDP
// datagram whose question matches a live pre-encoded entry is answered
// inside the reader loop with one memcpy plus a three-field patch —
// transaction ID, RD/CD echo, aged TTLs — never touching the decoder,
// the message builder or the encoder. Everything the fast path cannot
// prove about a query (unusual flags, compression pointers, non-address
// types, absent or expired wire entries) falls through to the slow path
// (Frontend.respond); the fast path is therefore free to be strict.

// wireBackend is the optional backend extension the fast path needs:
// the engine implements it, the one-shot generator (and test stubs) do
// not, and a frontend over a backend without it simply serves every
// datagram through the slow path.
type wireBackend interface {
	// afterLookup is false on the fast paths and true for the read the
	// slow path makes once its Lookup has returned (see Engine.WireLookup).
	WireLookup(key []byte, afterLookup bool) (*dnscache.WireEntry, time.Duration, bool)
}

// udpPacketBuf is the per-packet buffer size: big enough for any
// realistic query (a question plus an EDNS OPT is well under 600 bytes)
// and for every response the fast path serves (a larger advertised EDNS
// size with a bigger pool falls through to the slow path, which
// allocates per response). Oversized inbound datagrams are truncated by
// the kernel and fail the strict parse, landing in the slow-path
// decoder like any other malformed query.
const udpPacketBuf = 4096

// wireKeyMax bounds the engine cache key the fast path builds on the
// stack: a maximal 254-byte presentation-form name plus "|28".
const wireKeyMax = 260

// parseWireQuery strictly parses raw query bytes b into the engine
// cache key (appended to keyScratch, which the caller sizes wireKeyMax
// so no path grows it), the EDNS-honoured maximum response size and the
// OPT rdata length (0 when no options rode along — the DoH fast path
// bails on any, because the slow path's RFC 8467 padding reacts to
// them). ok is false whenever the query has any feature the fast paths
// do not prove — unusual flags, extra records, compression pointers,
// non-address types, trailing bytes — leaving it to the strict decoder.
// It allocates nothing.
//
//dohlint:noalloc
func parseWireQuery(b, keyScratch []byte) (key []byte, maxSize, optData int, ok bool) {
	if len(b) < 12 {
		return nil, 0, 0, false
	}
	// Flags: must be a standard query (QR clear, opcode QUERY). AA/TC/RD
	// and the byte-3 bits are ignored by the slow path's response builder
	// (RD/CD are echoed, the rest forced to the response's own values),
	// so they do not gate the fast path.
	if b[2]&0x80 != 0 || (b[2]>>3)&0x0F != 0 {
		return nil, 0, 0, false
	}
	// Counts: exactly one question, no answer/authority records, at most
	// one additional (the EDNS OPT).
	if b[4] != 0 || b[5] != 1 || b[6] != 0 || b[7] != 0 || b[8] != 0 || b[9] != 0 || b[10] != 0 || b[11] > 1 {
		return nil, 0, 0, false
	}
	hasOPT := b[11] == 1

	// Question name → engine cache key, lowercased presentation form
	// with trailing dot (decodeName's output, hence Lookup's key
	// spelling). Compression pointers, non-printable or '.' label bytes
	// and over-long names all bail out — the strict decoder is the
	// authority on those. The key builds into caller-provided scratch: a
	// stack array would escape through the wireBackend interface call
	// and cost one allocation per query.
	key = keyScratch[:0]
	off := 12
	for {
		if off >= len(b) {
			return nil, 0, 0, false
		}
		l := int(b[off])
		if l == 0 {
			off++
			break
		}
		if l >= 0x40 || off+1+l > len(b) || len(key)+l+1 > 254 {
			return nil, 0, 0, false
		}
		for _, c := range b[off+1 : off+1+l] {
			if c < 0x21 || c > 0x7E || c == '.' {
				return nil, 0, 0, false
			}
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			key = append(key, c)
		}
		key = append(key, '.')
		off += 1 + l
	}
	if len(key) == 0 {
		key = append(key, '.') // root
	}
	if off+4 > len(b) {
		return nil, 0, 0, false
	}
	qtype := uint16(b[off])<<8 | uint16(b[off+1])
	qclass := uint16(b[off+2])<<8 | uint16(b[off+3])
	off += 4
	if qclass != uint16(dnswire.ClassINET) {
		return nil, 0, 0, false
	}
	switch dnswire.Type(qtype) {
	case dnswire.TypeA:
		key = append(key, '|', '1')
	case dnswire.TypeAAAA:
		key = append(key, '|', '2', '8')
	default:
		return nil, 0, 0, false
	}

	// EDNS: honour the advertised payload size exactly as handleUDP does
	// (never below 512). The OPT rdata (options, version, DO bit) is
	// opaque to the slow path too, so only the fixed fields are checked;
	// its length is reported so option-sensitive callers can bail.
	maxSize = dnswire.MaxUDPSize
	if hasOPT {
		if off+11 > len(b) || b[off] != 0 || b[off+1] != 0 || b[off+2] != byte(dnswire.TypeOPT) {
			return nil, 0, 0, false
		}
		if adv := int(b[off+3])<<8 | int(b[off+4]); adv > maxSize {
			maxSize = adv
		}
		optData = int(b[off+9])<<8 | int(b[off+10])
		off += 11 + optData
	}
	if off != len(b) {
		// Trailing bytes: leave the query to the strict decoder.
		return nil, 0, 0, false
	}
	return key, maxSize, optData, true
}

// agedTTL ages a wire entry's answer TTL exactly as snapshotPool does
// for the slow path: subtract whole elapsed seconds, floor at 1 while
// still serving.
//
//dohlint:noalloc
func agedTTL(ttl uint32, age time.Duration) uint32 {
	if aged := uint32(age / time.Second); aged < ttl {
		return ttl - aged
	}
	if ttl > 0 {
		return 1
	}
	return 0
}

// answerWire serves pkt from the pre-encoded wire cache, returning true
// when pkt.dg now holds the complete response (the query bytes are
// overwritten in place). It allocates nothing on any path.
//
//dohlint:noalloc
func (f *Frontend) answerWire(pkt *udpPacket) bool {
	if f.wire == nil {
		return false
	}
	b := pkt.dg.Buf[:pkt.dg.N]
	key, maxSize, _, ok := parseWireQuery(b, pkt.key[:])
	if !ok {
		return false
	}

	we, age, ok := f.wire.WireLookup(key, false)
	if !ok {
		return false
	}
	form, truncated := we.Form(maxSize)
	if len(form) > len(pkt.buf) {
		return false
	}

	// Committed: everything below is the serve, mirroring the slow
	// path's instrument sequence for one successful UDP answer.
	f.inst.udp.queries.Inc()
	f.inst.udp.inflight.Inc()
	id := uint16(b[0])<<8 | uint16(b[1])
	qflags := [4]byte{b[0], b[1], b[2], b[3]} // b aliases pkt.buf; save before the copy
	n := copy(pkt.buf[:], form)
	out := pkt.buf[:n]
	dnswire.PatchID(out, id)
	dnswire.EchoFlags(out, qflags[:])
	if !truncated {
		dnswire.PatchAnswerTTLs(out, we.TTLOffsets, agedTTL(we.TTL, age))
	}
	pkt.dg.N = n
	f.served.Add(1)
	f.inst.rcode(dnswire.RCodeSuccess).Inc()
	f.inst.udp.inflight.Dec()
	return true
}
