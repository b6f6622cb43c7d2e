package serve

import (
	"container/list"
	"sync"
)

// lru is a small mutex-guarded map bounded by least-recent use: the one
// recency list behind the degraded path's fallback store and the
// rendered-reply memo.
type lru[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently put or got
	entries  map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[K]*list.Element),
	}
}

// Put stores v under k as the most recent entry and evicts the least
// recent ones beyond the capacity.
func (c *lru[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*lruEntry[K, V]).val = v
		c.order.MoveToFront(el)
		return
	}
	c.entries[k] = c.order.PushFront(&lruEntry[K, V]{key: k, val: v})
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry[K, V]).key)
	}
}

// Get returns k's value and marks it most recently used.
func (c *lru[K, V]) Get(k K) (V, bool) { return c.lookup(k, true) }

// Peek is Get without the recency side effect.
func (c *lru[K, V]) Peek(k K) (V, bool) { return c.lookup(k, false) }

func (c *lru[K, V]) lookup(k K, touch bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	if touch {
		c.order.MoveToFront(el)
	}
	return el.Value.(*lruEntry[K, V]).val, true
}

// Len returns the number of entries.
func (c *lru[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
