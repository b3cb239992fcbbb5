package serve

import (
	"container/list"
	"crypto/sha256"
)

// cacheKey is the content address of a request: the SHA-256 of the
// job kind, the canonical protocol encoding, and the normalized
// options. Two requests with the same key are guaranteed to produce
// bit-identical results (verification is deterministic, and the
// engine-parity suite pins that the perf knobs excluded from the key
// — engine, workers — cannot change the result either), so
// one run can serve every identical request after it.
type cacheKey [sha256.Size]byte

// cacheEntry is one cached result: the exact bytes of the first
// completed run's result document plus the job that produced it.
type cacheEntry struct {
	key    cacheKey
	result []byte
	jobID  string
}

// lruCache is a fixed-capacity LRU over cacheEntry, guarded by the
// server mutex (no internal locking).
type lruCache struct {
	cap     int
	order   *list.List // front = most recently used; values are *cacheEntry
	entries map[cacheKey]*list.Element
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[cacheKey]*list.Element),
	}
}

// get returns the entry for key, marking it most recently used.
func (c *lruCache) get(key cacheKey) (*cacheEntry, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// add stores an entry, evicting the least recently used one past
// capacity. Re-adding an existing key refreshes its recency but keeps
// the original bytes: the first completed run is canonical.
func (c *lruCache) add(key cacheKey, result []byte, jobID string) {
	if c.cap <= 0 {
		return
	}
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	el := c.order.PushFront(&cacheEntry{key: key, result: result, jobID: jobID})
	c.entries[key] = el
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
	}
}

// len reports the number of cached entries.
func (c *lruCache) len() int { return c.order.Len() }
