package dnscache

import (
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestStorePutGetAge(t *testing.T) {
	clk := newFakeClock()
	s := NewStore[int](0, clk.now)
	s.Put("k", 42, 10*time.Second)

	clk.advance(3 * time.Second)
	v, age, ok := s.Get("k")
	if !ok || v != 42 {
		t.Fatalf("Get = %d, %v", v, ok)
	}
	if age != 3*time.Second {
		t.Errorf("age = %v, want 3s", age)
	}
}

func TestStoreExpiry(t *testing.T) {
	clk := newFakeClock()
	s := NewStore[int](0, clk.now)
	s.Put("k", 1, 5*time.Second)
	clk.advance(5 * time.Second)
	if _, _, ok := s.Get("k"); ok {
		t.Fatal("entry survived its TTL")
	}
	if s.Len() != 0 {
		t.Errorf("expired entry not removed, Len = %d", s.Len())
	}
	st := s.Stats()
	if st.Misses != 1 || st.Expirations != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStoreNonPositiveTTLUncacheable(t *testing.T) {
	clk := newFakeClock()
	s := NewStore[int](0, clk.now)
	s.Put("zero", 1, 0)
	s.Put("neg", 2, -time.Second)
	if s.Len() != 0 {
		t.Fatalf("uncacheable TTLs stored, Len = %d", s.Len())
	}
}

func TestStoreGetStaleWindow(t *testing.T) {
	clk := newFakeClock()
	s := NewStore[string](0, clk.now)
	s.Put("k", "v", 10*time.Second)

	// Fresh: not stale.
	v, _, stale, ok := s.GetStale("k", 30*time.Second)
	if !ok || stale || v != "v" {
		t.Fatalf("fresh GetStale = %q stale=%v ok=%v", v, stale, ok)
	}
	// 5s past expiry, inside the 30s window: served stale.
	clk.advance(15 * time.Second)
	v, age, stale, ok := s.GetStale("k", 30*time.Second)
	if !ok || !stale || v != "v" {
		t.Fatalf("in-window GetStale = %q stale=%v ok=%v", v, stale, ok)
	}
	if age != 15*time.Second {
		t.Errorf("stale age = %v", age)
	}
	// Past the window: gone.
	clk.advance(26 * time.Second)
	if _, _, _, ok := s.GetStale("k", 30*time.Second); ok {
		t.Fatal("entry served beyond the stale window")
	}
}

func TestStoreLRUEvictionCountsEvictions(t *testing.T) {
	clk := newFakeClock()
	s := NewStore[int](2, clk.now)
	s.Put("a", 1, time.Minute)
	s.Put("b", 2, time.Minute)
	if _, _, ok := s.Get("a"); !ok { // touch a → b becomes the victim
		t.Fatal("a missing")
	}
	s.Put("c", 3, time.Minute)
	if _, _, ok := s.Get("b"); ok {
		t.Error("LRU victim b still cached")
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestStoreEvictExpired(t *testing.T) {
	clk := newFakeClock()
	s := NewStore[int](0, clk.now)
	for i := 0; i < 4; i++ {
		s.Put("short"+strconv.Itoa(i), i, 10*time.Second)
	}
	s.Put("long", 99, time.Hour)

	clk.advance(20 * time.Second)
	if got := s.EvictExpired(0); got != 4 {
		t.Fatalf("EvictExpired removed %d, want 4", got)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	if st := s.Stats(); st.Expirations != 4 {
		t.Errorf("expirations = %d", st.Expirations)
	}
}

func TestStoreEvictExpiredHonoursGrace(t *testing.T) {
	clk := newFakeClock()
	s := NewStore[int](0, clk.now)
	s.Put("k", 1, 10*time.Second)
	clk.advance(15 * time.Second)
	// 5s past expiry; a 30s grace (stale window) keeps it.
	if got := s.EvictExpired(30 * time.Second); got != 0 {
		t.Fatalf("grace ignored, removed %d", got)
	}
	clk.advance(30 * time.Second)
	if got := s.EvictExpired(30 * time.Second); got != 1 {
		t.Fatalf("EvictExpired removed %d, want 1", got)
	}
}

func TestStoreHitRate(t *testing.T) {
	clk := newFakeClock()
	s := NewStore[int](0, clk.now)
	if r := s.Stats().HitRate(); r != 0 {
		t.Fatalf("empty hit rate = %v", r)
	}
	s.Put("k", 1, time.Minute)
	s.Get("k")
	s.Get("absent")
	if r := s.Stats().HitRate(); r != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", r)
	}
}

func TestStoreRemoveAndFlush(t *testing.T) {
	clk := newFakeClock()
	s := NewStore[int](0, clk.now)
	s.Put("a", 1, time.Minute)
	s.Put("b", 2, time.Minute)
	s.Remove("a")
	if _, _, ok := s.Get("a"); ok {
		t.Fatal("removed entry still present")
	}
	s.Flush()
	if s.Len() != 0 {
		t.Fatalf("Len after Flush = %d", s.Len())
	}
}

func TestShardedStoreRoundsToPowerOfTwo(t *testing.T) {
	clk := newFakeClock()
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16},
	} {
		s := NewShardedStore[int](0, tc.in, clk.now)
		if got := s.ShardCount(); got != tc.want {
			t.Errorf("ShardCount(%d shards) = %d, want %d", tc.in, got, tc.want)
		}
	}
	if s := NewShardedStore[int](0, 0, clk.now); s.ShardCount() != DefaultShards() {
		t.Errorf("default shards = %d, want %d", s.ShardCount(), DefaultShards())
	}
}

func TestShardedStoreClampsShardsForSmallCapacity(t *testing.T) {
	clk := newFakeClock()
	// 100 entries over 64 requested shards would leave ~1-entry shards
	// where colliding hot keys evict each other; the constructor halves
	// the shard count until every shard holds >= minShardCapacity.
	s := NewShardedStore[int](100, 64, clk.now)
	if got := s.ShardCount(); got != 8 {
		t.Errorf("ShardCount(cap=100, shards=64) = %d, want 8 (100/8 >= %d)", got, minShardCapacity)
	}
	// A capacity below the floor still yields one usable shard.
	if got := NewShardedStore[int](2, 16, clk.now).ShardCount(); got != 1 {
		t.Errorf("ShardCount(cap=2, shards=16) = %d, want 1", got)
	}
}

func TestShardedStoreSpreadsAndAggregates(t *testing.T) {
	clk := newFakeClock()
	s := NewShardedStore[int](1024, 8, clk.now)
	const n = 200
	for i := 0; i < n; i++ {
		s.Put("key"+strconv.Itoa(i), i, time.Minute)
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	for i := 0; i < n; i++ {
		v, _, ok := s.Get("key" + strconv.Itoa(i))
		if !ok || v != i {
			t.Fatalf("Get(key%d) = %d, %v", i, v, ok)
		}
	}
	st := s.Stats()
	if st.Hits != n || st.Misses != 0 {
		t.Fatalf("aggregate stats = %+v", st)
	}
	// Per-shard stats must sum to the aggregate and touch >1 shard.
	var sum uint64
	populated := 0
	for _, ss := range s.ShardStats() {
		sum += ss.Hits
		if ss.Hits > 0 {
			populated++
		}
	}
	if sum != n {
		t.Errorf("shard hit sum = %d, want %d", sum, n)
	}
	if populated < 2 {
		t.Errorf("only %d shard(s) saw hits; keys are not spreading", populated)
	}
	if len(s.Entries()) != n {
		t.Errorf("Entries = %d, want %d", len(s.Entries()), n)
	}
}

func TestStoreEntryMetadataTracksHitsAndRefreshes(t *testing.T) {
	clk := newFakeClock()
	s := NewShardedStore[int](0, 4, clk.now)
	s.Put("k", 1, 10*time.Second)
	for i := 0; i < 3; i++ {
		if _, _, ok := s.Get("k"); !ok {
			t.Fatal("miss")
		}
	}
	if !s.RecordRefresh("k", false) {
		t.Fatal("RecordRefresh on live key reported missing")
	}
	// An in-place refresh (overwrite) preserves hit/refresh metadata.
	clk.advance(8 * time.Second)
	s.Put("k", 2, 10*time.Second)
	if !s.RecordRefresh("k", true) {
		t.Fatal("RecordRefresh on refreshed key reported missing")
	}

	entries := s.Entries()
	if len(entries) != 1 {
		t.Fatalf("entries = %d", len(entries))
	}
	e := entries[0]
	if e.Hits != 3 {
		t.Errorf("Hits = %d, want 3 (metadata lost across overwrite)", e.Hits)
	}
	if e.Refreshes != 2 {
		t.Errorf("Refreshes = %d, want 2", e.Refreshes)
	}
	if e.LastRefresh != RefreshOK {
		t.Errorf("LastRefresh = %v, want RefreshOK", e.LastRefresh)
	}
	if e.Age != 0 {
		t.Errorf("Age = %v, want 0 (reset by overwrite)", e.Age)
	}
	if s.RecordRefresh("absent", true) {
		t.Error("RecordRefresh on absent key reported success")
	}
}

func TestRefreshOutcomeStrings(t *testing.T) {
	for _, tc := range []struct {
		o    RefreshOutcome
		want string
	}{{RefreshNone, "none"}, {RefreshOK, "ok"}, {RefreshFailed, "failed"}} {
		if got := tc.o.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", tc.o, got, tc.want)
		}
	}
}

func TestShardedStoreParallelHotKey(t *testing.T) {
	// The fresh-hit fast path must be safe (and scale) under heavy
	// concurrent access to a single key mixed with writers; run with
	// -race to make this meaningful.
	s := NewShardedStore[int](128, 8, nil)
	s.Put("hot", 1, time.Hour)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if v, _, ok := s.Get("hot"); !ok || v != 1 {
					t.Errorf("hot key lost: %d %v", v, ok)
					return
				}
				s.Put("cold"+strconv.Itoa(g)+"-"+strconv.Itoa(i%16), i, time.Minute)
				s.Get("cold" + strconv.Itoa(g) + "-" + strconv.Itoa(i%16))
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Hits == 0 {
		t.Error("no hits recorded")
	}
	e := s.Entries()
	found := false
	for _, en := range e {
		if en.Key == "hot" {
			found = true
			if en.Hits != 8*500 {
				t.Errorf("hot hits = %d, want %d", en.Hits, 8*500)
			}
		}
	}
	if !found {
		t.Error("hot key missing from Entries")
	}
}

func TestStoreOverwriteResetsTTL(t *testing.T) {
	clk := newFakeClock()
	s := NewStore[int](0, clk.now)
	s.Put("k", 1, 10*time.Second)
	clk.advance(8 * time.Second)
	s.Put("k", 2, 10*time.Second)
	clk.advance(8 * time.Second)
	v, age, ok := s.Get("k")
	if !ok || v != 2 {
		t.Fatalf("Get = %d, %v", v, ok)
	}
	if age != 8*time.Second {
		t.Errorf("age = %v, want 8s (reset at overwrite)", age)
	}
}

// TestStorePeekLeavesNoTrace checks Peek reports a fresh entry with its
// storage instant, reports nothing for an absent or expired one, and
// moves neither the statistics nor the LRU order.
func TestStorePeekLeavesNoTrace(t *testing.T) {
	clk := newFakeClock()
	s := NewStore[int](2, clk.now)
	stored := clk.now()
	s.Put("old", 1, 10*time.Second)
	clk.advance(time.Second)
	s.Put("new", 2, 10*time.Second)

	v, at, ok := s.Peek([]byte("old"))
	if !ok || v != 1 || !at.Equal(stored) {
		t.Fatalf("Peek(old) = %d, %v, %v; want 1 stored at %v", v, at, ok, stored)
	}
	if _, _, ok := s.Peek([]byte("absent")); ok {
		t.Error("Peek found an absent key")
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("Peek moved the statistics: %+v", st)
	}
	// "old" is still the LRU victim.
	s.Put("third", 3, 10*time.Second)
	if _, _, ok := s.Peek([]byte("old")); ok {
		t.Error("Peek promoted the entry it read")
	}
	clk.advance(10 * time.Second)
	if _, _, ok := s.Peek([]byte("new")); ok {
		t.Error("Peek returned an expired entry")
	}
}
