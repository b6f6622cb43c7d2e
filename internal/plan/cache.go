package plan

import (
	"mtask/internal/core"
	"mtask/internal/lru"
)

// Key identifies a planning request in the schedule cache: the graph and
// machine fingerprints plus every knob that changes the resulting mapping.
type Key struct {
	Graph    uint64
	Machine  uint64
	Strategy string
	P        int

	// Cost model configuration (the model's machine may differ from the
	// mapping machine when a caller overrides it).
	ModelMachine   uint64
	Hybrid         bool
	ThreadsPerRank int

	// Scheduler knobs.
	ForceGroups          int
	MinGroups, MaxGroups int
}

// hash folds every key field, one word each, into one 64-bit value with
// the fingerprint mixer; the sharded cache and the singleflight table both
// use it to pick a shard, so equal keys always land on the same shard
// regardless of which side looks first.
func (k Key) hash() uint64 {
	h := mix(fpSeed, k.Graph)
	h = mix(h, k.Machine)
	h = mixString(h, k.Strategy)
	h = mix(h, uint64(k.P))
	h = mix(h, k.ModelMachine)
	var flags uint64
	if k.Hybrid {
		flags |= 1
	}
	h = mix(h, flags)
	h = mix(h, uint64(k.ThreadsPerRank))
	h = mix(h, uint64(k.ForceGroups))
	h = mix(h, uint64(k.MinGroups))
	return mix(h, uint64(k.MaxGroups))
}

// Cache is the schedule cache seam of the Planner: a thread-safe map from
// planning request keys to finished mappings. Implementations must be safe
// for concurrent use; cached mappings are shared between callers and must
// be treated as immutable (every consumer in this repository only reads
// them).
type Cache interface {
	// Get returns the cached mapping for the key, marking it most
	// recently used.
	Get(k Key) (*core.Mapping, bool)
	// Peek is Get without updating recency or the hit/miss counters;
	// the planner's singleflight leader uses it to close the race
	// between a miss and a concurrent leader's publish without skewing
	// the traffic statistics.
	Peek(k Key) (*core.Mapping, bool)
	// Add inserts a mapping, evicting older entries as needed.
	Add(k Key, mp *core.Mapping)
	// Len returns the number of cached mappings.
	Len() int
	// Stats returns the accumulated hit and miss counts.
	Stats() (hits, misses uint64)
	// Purge empties the cache (counters are kept).
	Purge()
}

// DefaultCacheSize is the schedule cache capacity used when none is given.
const DefaultCacheSize = 256

// DefaultShards is the shard count of NewCache. Sixteen shards keep the
// probability of two concurrent hot fingerprints contending on one mutex
// low while the per-shard LRUs stay large enough to be useful.
const DefaultShards = 16

// ShardedCache is the standard Cache: capacity is split over N
// fingerprint-sharded single-mutex LRUs, so concurrent requests only
// contend when their keys hash to the same shard. The zero value is
// unusable; construct with NewCache or NewShardedCache.
type ShardedCache struct {
	shards []*lru.Cache[Key, *core.Mapping]
	per    int // capacity of one shard
	mask   uint64
}

// NewCache returns the standard sharded LRU schedule cache holding up to
// capacity mappings across DefaultShards shards (capacity < 1 falls back
// to DefaultCacheSize).
func NewCache(capacity int) *ShardedCache {
	return NewShardedCache(capacity, DefaultShards)
}

// NewShardedCache returns a sharded LRU cache with the given total
// capacity and shard count. The shard count is rounded up to a power of
// two and capped so every shard holds at least one mapping; shards < 1
// falls back to DefaultShards, capacity < 1 to DefaultCacheSize. The total
// capacity is split evenly (rounded up), so the cache holds at least
// capacity mappings before any shard evicts.
func NewShardedCache(capacity, shards int) *ShardedCache {
	if capacity < 1 {
		capacity = DefaultCacheSize
	}
	if shards < 1 {
		shards = DefaultShards
	}
	if shards > capacity {
		shards = capacity
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	per := (capacity + n - 1) / n
	c := &ShardedCache{shards: make([]*lru.Cache[Key, *core.Mapping], n), per: per, mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i] = lru.New[Key, *core.Mapping](per)
	}
	return c
}

// Capacity returns how many mappings the cache holds before any shard
// must evict: the per-shard capacity times the shard count.
func (c *ShardedCache) Capacity() int { return len(c.shards) * c.per }

func (c *ShardedCache) shardFor(k Key) *lru.Cache[Key, *core.Mapping] {
	return c.shards[k.hash()&c.mask]
}

// Get returns the cached mapping for the key, marking it most recently
// used within its shard.
func (c *ShardedCache) Get(k Key) (*core.Mapping, bool) {
	return c.shardFor(k).Get(k)
}

// Peek returns the cached mapping without updating recency or counters.
func (c *ShardedCache) Peek(k Key) (*core.Mapping, bool) {
	return c.shardFor(k).Peek(k)
}

// Add inserts a mapping, evicting the least recently used entry of the
// key's shard when that shard is full.
func (c *ShardedCache) Add(k Key, mp *core.Mapping) {
	c.shardFor(k).Put(k, mp)
}

// Len returns the number of cached mappings over all shards.
func (c *ShardedCache) Len() int {
	n := 0
	for i := range c.shards {
		n += c.shards[i].Len()
	}
	return n
}

// Stats returns the hit and miss counts accumulated over all shards.
func (c *ShardedCache) Stats() (hits, misses uint64) {
	for i := range c.shards {
		h, m := c.shards[i].Stats()
		hits += h
		misses += m
	}
	return hits, misses
}

// ShardStats returns the per-shard (entries, hits, misses) triples, in
// shard order — the raw material of the serve-layer cache metrics.
func (c *ShardedCache) ShardStats() []ShardStat {
	out := make([]ShardStat, len(c.shards))
	for i := range c.shards {
		out[i].Len = c.shards[i].Len()
		out[i].Hits, out[i].Misses = c.shards[i].Stats()
	}
	return out
}

// ShardStat is one shard's size and traffic counters.
type ShardStat struct {
	Len          int
	Hits, Misses uint64
}

// Purge empties every shard (counters are kept).
func (c *ShardedCache) Purge() {
	for i := range c.shards {
		c.shards[i].Purge()
	}
}
