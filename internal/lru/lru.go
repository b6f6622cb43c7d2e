// Package lru is the one bounded least-recently-used map of the module: a
// mutex-guarded recency list plus index behind the planner's schedule-cache
// shards and the serving layer's fallback store and rendered-reply memo.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a mutex-guarded map bounded by least-recent use. Get counts
// hits and misses; Peek, Put, Len and Purge leave the counters alone.
// Construct with New; a Cache is safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently put or got
	entries  map[K]*list.Element

	hits, misses uint64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding up to capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[K]*list.Element),
	}
}

// Get returns k's value, marks it most recently used and counts a hit, or
// counts a miss.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Peek is Get without updating recency or the hit/miss counters.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	return el.Value.(*entry[K, V]).val, true
}

// Put stores v under k as the most recent entry and evicts the least
// recent ones beyond the capacity.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*entry[K, V]).val = v
		c.order.MoveToFront(el)
		return
	}
	c.entries[k] = c.order.PushFront(&entry[K, V]{key: k, val: v})
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry[K, V]).key)
	}
}

// Len returns the number of entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns the hits and misses Get has counted.
func (c *Cache[K, V]) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Purge removes every entry; the counters are kept.
func (c *Cache[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.entries = make(map[K]*list.Element)
}
