package core

import (
	"time"

	"dohpool/internal/dnscache"
	"dohpool/internal/dnswire"
	"dohpool/internal/metrics"
)

// This file is the engine half of the wire-format answer cache: pool
// generations pre-encode the response the frontend will serve, so a
// cached UDP hit becomes a memcpy plus a three-field patch (transaction
// ID, RD/CD echo, aged TTLs) instead of a decode → build → encode round
// trip. Entries live exactly as long as their pool cache entry and are
// replaced whenever a generation publishes a new pool — the frontend
// can never serve bytes from a superseded generation.

// buildWireEntry pre-encodes the full and truncated response forms for
// one freshly generated pool. The message mirrors the one the slow path
// builds when it has no entry to copy (Frontend.poolAnswer, encodeFramed's
// truncation) field for field: QR set,
// RA set, RD/CD clear (patched per query), ID 0 (patched per query),
// answers carrying the pool TTL. It returns nil when the pool cannot be
// encoded (a pool large enough to overflow the 64 KiB message limit);
// such keys simply stay on the slow path.
func buildWireEntry(spec wireSpec, p *Pool, majority bool, now time.Time) *dnscache.WireEntry {
	ttl := p.TTL
	if ttl == 0 {
		// Unreachable for cached pools (TTL-0 pools are never stored),
		// but kept identical to poolAnswer's guard.
		ttl = DefaultPoolTTL
	}
	name := dnswire.CanonicalName(spec.domain)
	resp := &dnswire.Message{
		Header: dnswire.Header{
			Response:           true,
			Opcode:             dnswire.OpcodeQuery,
			RecursionAvailable: true,
		},
		Questions: []dnswire.Question{{Name: name, Type: spec.typ, Class: dnswire.ClassINET}},
	}
	addrs := p.Addrs
	if majority {
		addrs = p.Majority
	}
	for _, a := range addrs {
		resp.Answers = append(resp.Answers, dnswire.AddressRecord(name, a, ttl))
	}
	full, err := resp.Encode()
	if err != nil {
		return nil
	}
	offsets, err := dnswire.AnswerTTLOffsets(full)
	if err != nil {
		return nil
	}
	trimmed := resp.Copy()
	trimmed.Answers = nil
	trimmed.Authority = nil
	trimmed.Additional = nil
	trimmed.Header.Truncated = true
	trunc, err := trimmed.Encode()
	if err != nil {
		return nil
	}
	// Store the full form once, behind its RFC 7766 length prefix: the
	// stream fast path serves framed[0:] whole, the datagram fast path
	// serves framed[2:].
	framed := frame(full)
	return &dnscache.WireEntry{
		Full:       framed[2:],
		FullFramed: framed,
		Truncated:  trunc,
		TTLOffsets: offsets,
		TTL:        ttl,
		Stored:     now,
		Expires:    now.Add(p.ttlDuration()),
	}
}

// frame returns a copy of msg behind its RFC 7766 two-octet length
// prefix. Encode caps messages at 64 KiB, so the length always fits.
func frame(msg []byte) []byte {
	framed := make([]byte, 2+len(msg))
	framed[0], framed[1] = byte(len(msg)>>8), byte(len(msg))
	copy(framed[2:], msg)
	return framed
}

// WireLookup returns the live pre-encoded answer for an engine cache
// key (built by the frontend directly from query bytes) together with
// the entry's age, for TTL patching. A hit allocates nothing — this is
// the frontend's per-datagram fast path. A miss is the frontend's way
// out to the slow path, and on it a wire entry lost to eviction is
// rebuilt from its pool (restoreWire). afterLookup marks the read a
// slow-path query makes once its Lookup has returned: that Lookup was
// the query's one cache access, so no wire hit or miss is counted and the
// pool entry is not touched.
//
//dohlint:noalloc
func (e *Engine) WireLookup(key []byte, afterLookup bool) (*dnscache.WireEntry, time.Duration, bool) {
	if e.wire == nil {
		return nil, 0, false
	}
	var en *dnscache.WireEntry
	var ok bool
	if afterLookup {
		en, ok = e.wire.Peek(key)
	} else {
		en, ok = e.wire.Get(key)
	}
	if !ok {
		if en = e.restoreWire(key); en == nil {
			return nil, 0, false
		}
	}
	if !afterLookup {
		// A wire hit must still count as traffic on the pool entry: the
		// refresher's popularity gate and the pool cache's LRU would
		// otherwise see a red-hot key as idle and let it expire or evict.
		e.cache.Touch(key)
	}
	return en, e.now().Sub(en.Stored), true
}

// restoreWire re-publishes the wire entry of a key whose pool is still
// cached and fresh, and returns it (nil when there is no such pool).
// WireCache.Put evicts an arbitrary entry from a full shard while the
// pool cache keeps strict LRU, so under cold traffic a hot name keeps
// its pool and loses its wire entry; without this it would stay on the
// slow path for the rest of its TTL. The entry is stamped with the
// pool's own storage time, so it ages and expires exactly as the
// evicted one did.
func (e *Engine) restoreWire(key []byte) *dnscache.WireEntry {
	// Most misses are for names with no pool at all: they must not meet
	// on the engine-wide lock.
	if _, _, ok := e.cache.Peek(key); !ok {
		return nil
	}
	e.publishMu.Lock()
	defer e.publishMu.Unlock()
	en, stored, ok := e.cache.Peek(key)
	if !ok || en.spec == (wireSpec{}) {
		return nil
	}
	we := buildWireEntry(en.spec, en.pool, e.gen.ServeMajority(), stored)
	if we != nil {
		e.wire.Put(string(key), we)
	}
	return we
}

// registerWireMetrics surfaces the wire cache's counters, read live at
// exposition time like the pool cache's.
func registerWireMetrics(reg *metrics.Registry, wire *dnscache.WireCache) {
	if reg == nil || wire == nil {
		return
	}
	reg.CounterFunc(MetricWireCacheHits, "Frontend queries answered from the pre-encoded wire cache (memcpy + ID/flags/TTL patch).",
		func() float64 { return float64(wire.Stats().Hits) })
	reg.CounterFunc(MetricWireCacheMisses, "Wire-cache lookups that fell through to the decode-encode slow path.",
		func() float64 { return float64(wire.Stats().Misses) })
	reg.GaugeFunc(MetricWireCacheEntries, "Pre-encoded answers currently resident in the wire cache.",
		func() float64 { return float64(wire.Len()) })
}
