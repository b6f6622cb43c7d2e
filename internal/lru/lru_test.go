package lru

import "testing"

// TestEvictsLeastRecent checks the recency order: Get refreshes an entry,
// Peek does not, and Put beyond the capacity evicts the least recent one.
func TestEvictsLeastRecent(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a")  // a is now the most recent
	c.Peek("b") // neutral: b stays the least recent
	c.Put("c", 3)
	if _, ok := c.Peek("b"); ok {
		t.Fatal("b survived; want it evicted as least recently used")
	}
	for k, want := range map[string]int{"a": 1, "c": 3} {
		if v, ok := c.Peek(k); !ok || v != want {
			t.Fatalf("Peek(%q) = %d, %v; want %d, true", k, v, ok, want)
		}
	}
	c.Put("a", 10) // overwrite refreshes without growing
	if v, _ := c.Peek("a"); v != 10 || c.Len() != 2 {
		t.Fatalf("after overwrite a=%d len=%d, want 10 and 2", v, c.Len())
	}
}

// TestStatsCountGetOnly checks that only Get moves the hit/miss counters
// and that Purge empties the cache but keeps them.
func TestStatsCountGetOnly(t *testing.T) {
	c := New[int, int](4)
	c.Put(1, 1)
	c.Get(1)
	c.Get(2)
	c.Peek(1)
	c.Peek(2)
	if h, m := c.Stats(); h != 1 || m != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 1, 1", h, m)
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("Len after Purge = %d, want 0", c.Len())
	}
	if h, m := c.Stats(); h != 1 || m != 1 {
		t.Fatalf("Purge reset the counters to %d, %d", h, m)
	}
	c.Put(1, 1)
	if v, ok := c.Get(1); !ok || v != 1 {
		t.Fatal("cache unusable after Purge")
	}
}
