package parallel

import (
	"container/list"
	"sync"

	"flattree/internal/telemetry"
)

// Cache is a bounded, content-keyed memoization cache with single-flight
// semantics: concurrent Do calls for the same key compute the value once
// and every caller receives the same (pointer-equal) result. Keys must
// fully describe the computation's inputs — the experiment layer keys
// route tables by (topology fingerprint, k) and LP solutions by (topology
// fingerprint, objective, epsilon, commodity hash), so repeated cells
// across Table 2, Figure 6/7/8, and the ablations reuse work across runs
// within one process.
//
// Eviction is LRU by entry count. Hits, misses, and evictions flow into
// the telemetry registry labeled with the cache's name.
type Cache struct {
	name string
	max  int

	mu      sync.Mutex
	entries map[string]*list.Element
	lru     list.List // front = most recently used; values are *cacheEntry
	onEvict func(key string)
}

type cacheEntry struct {
	key   string
	ready chan struct{}
	val   interface{}
	err   error
}

// NewCache returns an empty cache holding at most maxEntries values;
// maxEntries <= 0 means unbounded. The name labels the cache's telemetry
// counters.
func NewCache(name string, maxEntries int) *Cache {
	return &Cache{name: name, max: maxEntries, entries: map[string]*list.Element{}}
}

// OnEvict registers fn to be called with each key the cache evicts for
// capacity, after the cache lock is released — callers keeping derived
// records keyed by cache entries (e.g. the route table's max-k index)
// use it to drop records that would otherwise dangle. Purge does not
// invoke the hook: purging callers reset their records themselves.
func (c *Cache) OnEvict(fn func(key string)) {
	c.mu.Lock()
	c.onEvict = fn
	c.mu.Unlock()
}

// Do returns the value for key, computing it with fn on a miss. Errors are
// not cached: a failed computation is forgotten so a later Do retries.
// In-flight waiters of a failing computation receive its error.
func (c *Cache) Do(key string, fn func() (interface{}, error)) (interface{}, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.mu.Unlock()
		<-e.ready
		if e.err == nil {
			telemetry.C("parallel_cache_hits_total", "cache", c.name).Inc()
		}
		return e.val, e.err
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = c.lru.PushFront(e)
	evicted := c.evictLocked()
	hook := c.onEvict
	c.mu.Unlock()
	telemetry.C("parallel_cache_misses_total", "cache", c.name).Inc()
	if hook != nil {
		for _, k := range evicted {
			hook(k)
		}
	}

	e.val, e.err = fn()
	close(e.ready)
	if e.err != nil {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok && el.Value.(*cacheEntry) == e {
			c.lru.Remove(el)
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
	return e.val, e.err
}

// Peek returns the completed cached value for key without computing it.
// It never blocks: an in-flight entry reports absent.
func (c *Cache) Peek(key string) (interface{}, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok {
		c.lru.MoveToFront(el)
	}
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	select {
	case <-e.ready:
		if e.err != nil {
			return nil, false
		}
		return e.val, true
	default:
		return nil, false
	}
}

// evictLocked drops least-recently-used entries beyond the capacity and
// returns their keys for the eviction hook. Evicting an in-flight entry
// is safe: its waiters hold the entry pointer and still receive the
// computed value; the cache just forgets it.
func (c *Cache) evictLocked() []string {
	if c.max <= 0 {
		return nil
	}
	var evicted []string
	for len(c.entries) > c.max {
		el := c.lru.Back()
		if el == nil {
			break
		}
		e := el.Value.(*cacheEntry)
		c.lru.Remove(el)
		delete(c.entries, e.key)
		evicted = append(evicted, e.key)
		telemetry.C("parallel_cache_evictions_total", "cache", c.name).Inc()
	}
	return evicted
}

// Get is the typed wrapper around Cache.Do: identical keys return the
// identical (pointer-equal, for pointer types) cached value.
func Get[T any](c *Cache, key string, fn func() (T, error)) (T, error) {
	v, err := c.Do(key, func() (interface{}, error) { return fn() })
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}
