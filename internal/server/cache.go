package server

import (
	"container/list"
	"sync"
)

// resultCache is the deterministic result cache. Runs are pure functions of
// the canonical job tuple, so a completed JobOutput can be replayed,
// byte-identical, for any later request with the same key. Entries are bounded by least-recently-used eviction; a Get refreshes
// recency.
type resultCache struct {
	mu    sync.Mutex
	bound int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	key string
	out *JobOutput
}

// newResultCache makes a cache holding at most bound entries; bound <= 0
// disables caching entirely (every Get misses, every Put is dropped).
func newResultCache(bound int) *resultCache {
	return &resultCache{bound: bound, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached output for key, refreshing its recency.
func (c *resultCache) Get(key string) (*JobOutput, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(e)
	return e.Value.(*cacheEntry).out, true
}

// Put stores out under key and returns how many entries were evicted to
// make room (0 or 1; also 0 when the key was already present or caching is
// disabled).
func (c *resultCache) Put(key string, out *JobOutput) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bound <= 0 {
		return 0
	}
	if e, ok := c.items[key]; ok {
		// Identical tuple ⇒ identical bytes; just refresh recency.
		c.ll.MoveToFront(e)
		return 0
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, out: out})
	evicted := 0
	for c.ll.Len() > c.bound {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		evicted++
	}
	return evicted
}

// Len returns the number of cached entries.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
