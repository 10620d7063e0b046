package dnscache

import (
	"sync"
	"sync/atomic"
	"time"
)

// WireEntry is one pre-encoded DNS response kept alongside a pool cache
// entry: the complete answer plus the truncated (TC, empty-section) form
// served when the client's advertised payload size cannot fit the full
// one. Both forms are stored with transaction ID 0 and the RD/CD echo
// bits clear; the serve path copies the chosen form and patches those
// few octets per query (dnswire.PatchID, dnswire.EchoFlags), plus the
// aged answer TTLs at TTLOffsets. Entries are immutable after Put — a
// regeneration replaces the entry wholesale, never edits it.
type WireEntry struct {
	// Full is the complete encoded response.
	Full []byte
	// FullFramed is Full behind a pre-encoded RFC 7766 2-byte length
	// prefix, so the stream transports (TCP, DoT) serve a cached hit
	// with one copy and one write — no per-response prefix assembly.
	// Full aliases FullFramed[2:]: the bytes are stored once.
	// TTLOffsets index into Full, so stream patches apply them at +2.
	// Truncation is a UDP-only concept (a stream never outgrows its
	// 64 KiB frame), so the truncated form has no framed twin.
	FullFramed []byte
	// Truncated is the encoded TC form: same header and question,
	// empty answer/authority/additional sections, TC bit set.
	Truncated []byte
	// TTLOffsets are the byte offsets of the answer TTL fields in Full
	// (dnswire.AnswerTTLOffsets).
	TTLOffsets []int
	// TTL is the answer TTL encoded in Full, the value aged copies
	// count down from.
	TTL uint32
	// Stored is when the entry was built; the serve path derives the
	// aged TTL from now − Stored.
	Stored time.Time
	// Expires is when the entry stops being servable.
	Expires time.Time
}

// Form picks the stored form that fits within limit octets, reporting
// whether it is the truncated one. This mirrors the slow path's
// truncation rule exactly: the full form is served iff it fits.
//
//dohlint:noalloc
func (e *WireEntry) Form(limit int) (wire []byte, truncated bool) {
	if len(e.Full) <= limit {
		return e.Full, false
	}
	return e.Truncated, true
}

// WireStats is a point-in-time snapshot of wire cache counters.
type WireStats struct {
	Hits    uint64
	Misses  uint64
	Entries int
}

// wireShard is one lock domain of a WireCache.
type wireShard struct {
	// The shard lock sits on the allocation-free UDP serve path.
	//dohlint:hotlock
	mu  sync.RWMutex
	m   map[string]*WireEntry
	cap int
}

// WireCache maps an engine cache key to its pre-encoded response forms.
// It is a plain sharded map rather than a Store because its single hot
// operation — Get with a caller-built []byte key — must not allocate:
// the lookup indexes the shard map with string(key) directly, which the
// compiler performs without materialising a string. Expired entries are
// dropped lazily on access and swept when a shard hits capacity, so the
// cache stays bounded by roughly the pool cache's own key population.
type WireCache struct {
	shards []*wireShard
	mask   uint32
	now    func() time.Time

	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewWireCache builds a WireCache bounded to capacity entries split over
// shards lock domains, with the same defaulting and clamping rules as
// NewShardedStore. clock injects a time source (nil uses time.Now).
func NewWireCache(capacity, shards int, clock func() time.Time) *WireCache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if shards <= 0 {
		shards = DefaultShards()
	}
	shards = nextPow2(shards)
	for shards > 1 && capacity/shards < minShardCapacity {
		shards >>= 1
	}
	if clock == nil {
		clock = time.Now
	}
	perShard := (capacity + shards - 1) / shards
	if perShard < 1 {
		perShard = 1
	}
	c := &WireCache{
		shards: make([]*wireShard, shards),
		mask:   uint32(shards - 1),
		now:    clock,
	}
	for i := range c.shards {
		c.shards[i] = &wireShard{m: make(map[string]*WireEntry), cap: perShard}
	}
	return c
}

// shardFor hashes key bytes (FNV-1a, identical to Store's) onto a shard.
//
//dohlint:noalloc
func (c *WireCache) shardFor(key []byte) *wireShard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return c.shards[h&c.mask]
}

// Get returns the live entry for key, or (nil, false), and counts the
// lookup as a hit or a miss. It allocates nothing: key stays a []byte end
// to end and the map index converts it without a heap string. An expired
// entry counts as a miss and is removed on the spot.
//
//dohlint:noalloc
func (c *WireCache) Get(key []byte) (*WireEntry, bool) {
	e, ok := c.Peek(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e, ok
}

// Peek is Get without the hit or miss: the read of a query that has
// already been counted where it was looked up.
//
//dohlint:noalloc
func (c *WireCache) Peek(key []byte) (*WireEntry, bool) {
	sh := c.shardFor(key)
	sh.mu.RLock()
	e, ok := sh.m[string(key)]
	sh.mu.RUnlock()
	if !ok {
		return nil, false
	}
	if !c.now().Before(e.Expires) {
		sh.mu.Lock()
		// Re-check under the write lock: a regeneration may have
		// replaced the entry since the read.
		if cur, still := sh.m[string(key)]; still && cur == e {
			delete(sh.m, string(key))
		}
		sh.mu.Unlock()
		return nil, false
	}
	return e, true
}

// Put stores (replacing) the entry for key. A shard at capacity first
// sweeps its expired entries; if every resident entry is live, an
// arbitrary one is evicted — approximate, but the population is bounded
// by the pool cache's, so pressure here is rare.
func (c *WireCache) Put(key string, e *WireEntry) {
	sh := c.shardFor([]byte(key))
	sh.mu.Lock()
	if _, exists := sh.m[key]; !exists && len(sh.m) >= sh.cap {
		now := c.now()
		for k, old := range sh.m {
			if !now.Before(old.Expires) {
				delete(sh.m, k)
			}
		}
		for k := range sh.m {
			if len(sh.m) < sh.cap {
				break
			}
			delete(sh.m, k)
		}
	}
	sh.m[key] = e
	sh.mu.Unlock()
}

// Invalidate removes key's entry, if any. The engine calls this before
// publishing a regenerated pool so the wire cache can never serve bytes
// from a superseded generation.
func (c *WireCache) Invalidate(key string) {
	sh := c.shardFor([]byte(key))
	sh.mu.Lock()
	delete(sh.m, key)
	sh.mu.Unlock()
}

// Len returns the resident entry count (including not-yet-swept expired
// entries).
func (c *WireCache) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Stats snapshots the cache counters.
func (c *WireCache) Stats() WireStats {
	return WireStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Entries: c.Len(),
	}
}
