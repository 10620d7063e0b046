package dnscache

import (
	"container/list"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Stats reports cache effectiveness. Hits counts fresh (and served-stale)
// lookups, Misses absent or expired ones, Evictions capacity-pressure
// removals, Expirations TTL-driven removals (lazy or via EvictExpired),
// Stale the subset of hits served past their TTL inside the
// stale-while-revalidate window.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	Expirations uint64
	Stale       uint64
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// add folds o into s (aggregating per-shard counters).
func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Expirations += o.Expirations
	s.Stale += o.Stale
}

// RefreshOutcome records how the most recent background refresh of an
// entry ended.
type RefreshOutcome int32

// Refresh outcomes.
const (
	// RefreshNone: the entry has never been refreshed in the background.
	RefreshNone RefreshOutcome = iota
	// RefreshOK: the last background refresh replaced the value.
	RefreshOK
	// RefreshFailed: the last background refresh failed; the previous
	// value was kept.
	RefreshFailed
)

// String returns the admin-facing spelling of the outcome.
func (o RefreshOutcome) String() string {
	switch o {
	case RefreshOK:
		return "ok"
	case RefreshFailed:
		return "failed"
	default:
		return "none"
	}
}

// Store is a thread-safe TTL-aware LRU keyed by string, generic over the
// cached value. It is split into a power-of-two number of shards, each
// with its own lock, LRU list and statistics, so concurrent lookups on
// different keys never contend — and the fresh-hit fast path takes only a
// shard read-lock plus atomic counter updates, so even a single hot key
// scales with cores instead of serializing behind one mutex. The DNS
// message Cache and the consensus engine's pool cache are both built on
// it. The zero value is not usable; call NewStore or NewShardedStore.
type Store[V any] struct {
	shards []*shard[V]
	mask   uint32
	now    func() time.Time
}

// shard is one lock domain: a map + LRU list bounded to its slice of the
// store's capacity. Counters are atomics so the read-locked hit path can
// update them without lock promotion.
type shard[V any] struct {
	// The shard lock guards every cached-hit lookup.
	//dohlint:hotlock
	mu      sync.RWMutex
	entries map[string]*list.Element
	lru     *list.List // front = most recent
	cap     int

	hits        atomic.Uint64
	misses      atomic.Uint64
	evictions   atomic.Uint64
	expirations atomic.Uint64
	stale       atomic.Uint64
}

// storeEntry fields stored/expires/val are written only under the shard's
// write lock; the metadata counters are atomics updated under the read
// lock (hits) or from refresh bookkeeping (refreshes, lastRefresh).
type storeEntry[V any] struct {
	key     string
	val     V
	stored  time.Time
	expires time.Time

	hits        atomic.Uint64
	refreshes   atomic.Uint64
	lastRefresh atomic.Int32 // RefreshOutcome
}

// DefaultShards returns the shard count NewShardedStore uses for a
// non-positive shard argument: the next power of two at or above
// GOMAXPROCS, capped at 256.
func DefaultShards() int {
	n := nextPow2(runtime.GOMAXPROCS(0))
	if n > 256 {
		n = 256
	}
	return n
}

// nextPow2 rounds n up to the nearest power of two (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewStore builds a single-shard Store bounded to capacity entries (0 or
// negative uses DefaultCapacity) reading time from clock (nil uses
// time.Now). A single shard keeps strict global LRU order — the right
// choice for small caches; use NewShardedStore for concurrent hot paths.
func NewStore[V any](capacity int, clock func() time.Time) *Store[V] {
	return NewShardedStore[V](capacity, 1, clock)
}

// minShardCapacity is the smallest per-shard LRU the constructor will
// produce: below this, hash skew makes hot keys in one shard evict each
// other while sibling shards sit empty, so the shard count is halved
// until every shard holds at least this many entries.
const minShardCapacity = 8

// NewShardedStore builds a Store split into shards lock domains (rounded
// up to a power of two; non-positive uses DefaultShards) with a combined
// bound of capacity entries (0 or negative uses DefaultCapacity), reading
// time from clock (nil uses time.Now). Capacity is divided evenly across
// shards, so eviction order is LRU per shard, approximate LRU globally;
// a small capacity clamps the shard count so no shard's slice drops
// below minShardCapacity.
func NewShardedStore[V any](capacity, shards int, clock func() time.Time) *Store[V] {
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
	s := &Store[V]{
		shards: make([]*shard[V], shards),
		mask:   uint32(shards - 1),
		now:    clock,
	}
	for i := range s.shards {
		s.shards[i] = &shard[V]{
			entries: make(map[string]*list.Element),
			lru:     list.New(),
			cap:     perShard,
		}
	}
	return s
}

// shardFor hashes key (FNV-1a) onto one shard.
func (s *Store[V]) shardFor(key string) *shard[V] {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return s.shards[h&s.mask]
}

// shardForBytes is shardFor for a byte-view key (same FNV-1a, so both
// spellings of a key land on the same shard).
//
//dohlint:noalloc
func (s *Store[V]) shardForBytes(key []byte) *shard[V] {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return s.shards[h&s.mask]
}

// ShardCount returns the number of lock domains.
func (s *Store[V]) ShardCount() int { return len(s.shards) }

// Put stores val under key for ttl. A non-positive ttl is uncacheable and
// ignored. An existing entry is replaced in place — its hit and refresh
// metadata survive, so popularity tracking spans refreshes.
func (s *Store[V]) Put(key string, val V, ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	now := s.now()
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[key]; ok {
		e := el.Value.(*storeEntry[V])
		e.val = val
		e.stored = now
		e.expires = now.Add(ttl)
		sh.lru.MoveToFront(el)
		return
	}
	e := &storeEntry[V]{key: key, val: val, stored: now, expires: now.Add(ttl)}
	sh.entries[key] = sh.lru.PushFront(e)
	for sh.lru.Len() > sh.cap {
		sh.removeLocked(sh.lru.Back())
		sh.evictions.Add(1)
	}
}

// Get returns the value stored under key together with its age (time since
// Put). An expired entry is removed and reported as a miss.
func (s *Store[V]) Get(key string) (val V, age time.Duration, ok bool) {
	val, age, stale, ok := s.GetStale(key, 0)
	if stale {
		var zero V
		return zero, 0, false
	}
	return val, age, ok
}

// GetStale is Get with a stale-while-revalidate window: an entry whose TTL
// expired no more than maxStale ago is still returned, flagged stale, so
// the caller can serve it while refreshing in the background. Entries
// beyond the window are removed and reported as misses. Stale serves count
// as hits.
//
// The fresh-hit path runs under the shard's read lock with atomic counter
// updates; LRU promotion is skipped while the entry is already the
// shard's most recent, so a single hot key contends on nothing.
func (s *Store[V]) GetStale(key string, maxStale time.Duration) (val V, age time.Duration, stale, ok bool) {
	now := s.now()
	sh := s.shardFor(key)

	sh.mu.RLock()
	if el, found := sh.entries[key]; found {
		e := el.Value.(*storeEntry[V])
		if now.Before(e.expires) {
			val = e.val
			age = now.Sub(e.stored)
			atFront := sh.lru.Front() == el
			e.hits.Add(1)
			sh.hits.Add(1)
			sh.mu.RUnlock()
			if !atFront {
				sh.promote(key, el)
			}
			return val, age, false, true
		}
	}
	sh.mu.RUnlock()

	// Slow path: absent, expired or stale — take the write lock and
	// re-check, since the world may have changed between locks.
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, found := sh.entries[key]
	if !found {
		sh.misses.Add(1)
		var zero V
		return zero, 0, false, false
	}
	e := el.Value.(*storeEntry[V])
	if !now.Before(e.expires) {
		if now.Sub(e.expires) >= maxStale {
			sh.removeLocked(el)
			sh.expirations.Add(1)
			sh.misses.Add(1)
			var zero V
			return zero, 0, false, false
		}
		stale = true
		sh.stale.Add(1)
	}
	sh.lru.MoveToFront(el)
	e.hits.Add(1)
	sh.hits.Add(1)
	return e.val, now.Sub(e.stored), stale, true
}

// Touch records a lookup served on key's behalf by an external fast
// path (the engine's pre-encoded wire cache): the entry's own popularity
// counter is bumped and its LRU position refreshed, exactly as a Get
// would, but the shard's hit/miss statistics are untouched — the fast
// path has its own counters, and a Touch is not a second lookup. The
// key is a byte view so the caller's per-datagram path stays
// allocation-free (the map index compiles to a no-copy lookup). A key
// not present is a no-op.
//
//dohlint:noalloc
func (s *Store[V]) Touch(key []byte) {
	sh := s.shardForBytes(key)
	sh.mu.RLock()
	el, found := sh.entries[string(key)]
	if !found {
		sh.mu.RUnlock()
		return
	}
	e := el.Value.(*storeEntry[V])
	e.hits.Add(1)
	atFront := sh.lru.Front() == el
	sh.mu.RUnlock()
	if !atFront {
		sh.mu.Lock()
		if sh.entries[string(key)] == el {
			sh.lru.MoveToFront(el)
		}
		sh.mu.Unlock()
	}
}

// Peek returns key's value and the instant it was stored while the
// entry is fresh, without counting a lookup or moving the entry in the
// LRU: the engine rebuilds a lost wire entry from it, and the query
// that triggered the rebuild is then counted where it is served.
func (s *Store[V]) Peek(key []byte) (val V, stored time.Time, ok bool) {
	sh := s.shardForBytes(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	el, found := sh.entries[string(key)]
	if !found {
		return val, stored, false
	}
	e := el.Value.(*storeEntry[V])
	if !s.now().Before(e.expires) {
		return val, stored, false
	}
	return e.val, e.stored, true
}

// promote moves el to the front of the shard's LRU under the write lock,
// tolerating concurrent removal (the entry must still be the one mapped
// under key).
func (sh *shard[V]) promote(key string, el *list.Element) {
	sh.mu.Lock()
	if sh.entries[key] == el {
		sh.lru.MoveToFront(el)
	}
	sh.mu.Unlock()
}

// RecordRefresh notes the outcome of a background refresh of key: the
// entry's refresh count is incremented and its last outcome replaced. A
// key no longer cached (evicted mid-refresh) is a no-op and reported
// false.
func (s *Store[V]) RecordRefresh(key string, ok bool) bool {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	el, found := sh.entries[key]
	if !found {
		return false
	}
	e := el.Value.(*storeEntry[V])
	e.refreshes.Add(1)
	outcome := RefreshFailed
	if ok {
		outcome = RefreshOK
	}
	e.lastRefresh.Store(int32(outcome))
	return true
}

// EvictExpired removes every entry whose TTL expired more than grace ago
// and returns how many were removed. Run it periodically to bound memory
// held by dead entries that Get never touches again; grace keeps entries
// alive for a stale-while-revalidate window.
func (s *Store[V]) EvictExpired(grace time.Duration) int {
	if grace < 0 {
		grace = 0
	}
	now := s.now()
	removed := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		for el := sh.lru.Back(); el != nil; {
			prev := el.Prev()
			e := el.Value.(*storeEntry[V])
			if now.Sub(e.expires) >= grace {
				sh.removeLocked(el)
				sh.expirations.Add(1)
				removed++
			}
			el = prev
		}
		sh.mu.Unlock()
	}
	return removed
}

// Remove deletes key if present.
func (s *Store[V]) Remove(key string) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[key]; ok {
		sh.removeLocked(el)
	}
}

// Flush removes every entry (counters survive).
func (s *Store[V]) Flush() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.entries = make(map[string]*list.Element)
		sh.lru.Init()
		sh.mu.Unlock()
	}
}

// Len returns the number of live entries (including not-yet-collected
// expired ones).
func (s *Store[V]) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.lru.Len()
		sh.mu.RUnlock()
	}
	return n
}

// Stats returns a snapshot of the cumulative counters summed across
// shards.
func (s *Store[V]) Stats() Stats {
	var out Stats
	for _, sh := range s.shards {
		out.add(sh.snapshot())
	}
	return out
}

// ShardStats returns each shard's counters individually, for hit-
// distribution introspection (a skewed distribution means the key space
// hashes badly or one shard holds the hot keys).
func (s *Store[V]) ShardStats() []Stats {
	out := make([]Stats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.snapshot()
	}
	return out
}

// ShardStat returns shard i's counters alone — the allocation-free form
// of ShardStats for per-shard metric callbacks read on every scrape.
func (s *Store[V]) ShardStat(i int) Stats {
	return s.shards[i].snapshot()
}

func (sh *shard[V]) snapshot() Stats {
	return Stats{
		Hits:        sh.hits.Load(),
		Misses:      sh.misses.Load(),
		Evictions:   sh.evictions.Load(),
		Expirations: sh.expirations.Load(),
		Stale:       sh.stale.Load(),
	}
}

// Entry is a point-in-time view of one cached element.
type Entry[V any] struct {
	Key string
	Val V
	// Age is the time since the entry was stored (or last refreshed in
	// place).
	Age time.Duration
	// Remaining is the TTL left; negative once expired (the entry may
	// still be serveable inside a stale window).
	Remaining time.Duration
	// Hits counts lookups answered by this entry across its lifetime,
	// surviving in-place refreshes — the refresher's popularity signal.
	Hits uint64
	// Refreshes counts background refresh completions recorded against
	// the entry.
	Refreshes uint64
	// LastRefresh reports how the most recent background refresh ended.
	LastRefresh RefreshOutcome
}

// Entries snapshots the live entries for introspection endpoints,
// shard by shard, most recently used first within each shard. Values are
// the cached pointers/structs themselves — callers must not mutate them.
func (s *Store[V]) Entries() []Entry[V] {
	now := s.now()
	var out []Entry[V]
	for _, sh := range s.shards {
		sh.mu.RLock()
		if cap(out)-len(out) < sh.lru.Len() {
			grown := make([]Entry[V], len(out), len(out)+sh.lru.Len())
			copy(grown, out)
			out = grown
		}
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			e := el.Value.(*storeEntry[V])
			out = append(out, Entry[V]{
				Key:         e.key,
				Val:         e.val,
				Age:         now.Sub(e.stored),
				Remaining:   e.expires.Sub(now),
				Hits:        e.hits.Load(),
				Refreshes:   e.refreshes.Load(),
				LastRefresh: RefreshOutcome(e.lastRefresh.Load()),
			})
		}
		sh.mu.RUnlock()
	}
	return out
}

// removeLocked must be called with the shard's write lock held.
func (sh *shard[V]) removeLocked(el *list.Element) {
	sh.lru.Remove(el)
	delete(sh.entries, el.Value.(*storeEntry[V]).key)
}
