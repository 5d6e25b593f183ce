package parallel

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

type blob struct{ payload []int }

func TestCachePointerEqualForIdenticalKeys(t *testing.T) {
	c := NewCache("test", 16)
	build := func() (*blob, error) { return &blob{payload: []int{1, 2, 3}}, nil }
	a, err := Get(c, "k", build)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Get(c, "k", build)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical keys returned distinct pointers %p %p", a, b)
	}
	other, err := Get(c, "k2", build)
	if err != nil {
		t.Fatal(err)
	}
	if other == a {
		t.Fatal("distinct keys returned the same pointer")
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache("test", 16)
	var computed atomic.Int64
	var wg sync.WaitGroup
	results := make([]*blob, 32)
	start := make(chan struct{})
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, err := Get(c, "shared", func() (*blob, error) {
				computed.Add(1)
				return &blob{}, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	if n := computed.Load(); n != 1 {
		t.Fatalf("value computed %d times, want 1", n)
	}
	for i, v := range results {
		if v != results[0] {
			t.Fatalf("caller %d got a different pointer", i)
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache("test", 2)
	mk := func(i int) func() (*blob, error) {
		return func() (*blob, error) { return &blob{payload: []int{i}}, nil }
	}
	a1, _ := Get(c, "a", mk(1))
	Get(c, "b", mk(2))
	// Touch "a" so "b" is the LRU entry, then insert "c" to evict "b".
	Get(c, "a", mk(0))
	Get(c, "c", mk(3))
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
	if _, ok := c.Peek("b"); ok {
		t.Fatal("evicted key still present")
	}
	a2, _ := Get(c, "a", mk(99))
	if a1 != a2 {
		t.Fatal("retained key was recomputed")
	}
	b2, _ := Get(c, "b", mk(4))
	if b2.payload[0] != 4 {
		t.Fatal("evicted key was not recomputed")
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache("test", 16)
	calls := 0
	fail := errors.New("transient")
	_, err := Get(c, "k", func() (*blob, error) { calls++; return nil, fail })
	if !errors.Is(err, fail) {
		t.Fatalf("err = %v", err)
	}
	v, err := Get(c, "k", func() (*blob, error) { calls++; return &blob{}, nil })
	if err != nil || v == nil {
		t.Fatalf("retry after error failed: %v %v", v, err)
	}
	if calls != 2 {
		t.Fatalf("fn called %d times, want 2 (error must not be cached)", calls)
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.Len())
	}
}

func TestCachePeek(t *testing.T) {
	c := NewCache("test", 16)
	if _, ok := c.Peek("missing"); ok {
		t.Fatal("Peek found a missing key")
	}
	want, _ := Get(c, "k", func() (*blob, error) { return &blob{}, nil })
	got, ok := c.Peek("k")
	if !ok || got.(*blob) != want {
		t.Fatalf("Peek = %v %v, want the cached value", got, ok)
	}
}

func TestCachePurge(t *testing.T) {
	c := NewCache("test", 16)
	Get(c, "k", func() (*blob, error) { return &blob{}, nil })
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("cache holds %d entries after Purge", c.Len())
	}
}

func TestCacheUnboundedWhenMaxNonPositive(t *testing.T) {
	c := NewCache("test", 0)
	for i := 0; i < 100; i++ {
		Get(c, fmt.Sprintf("k%d", i), func() (*blob, error) { return &blob{}, nil })
	}
	if c.Len() != 100 {
		t.Fatalf("unbounded cache holds %d entries, want 100", c.Len())
	}
}

// TestCacheEvictionHook verifies OnEvict fires with exactly the keys
// dropped for capacity, in LRU order, and not on Purge.
func TestCacheEvictionHook(t *testing.T) {
	c := NewCache("test", 2)
	var evicted []string
	c.OnEvict(func(key string) { evicted = append(evicted, key) })
	build := func() (*blob, error) { return &blob{}, nil }
	for _, k := range []string{"a", "b", "c", "d"} {
		if _, err := Get(c, k, build); err != nil {
			t.Fatal(err)
		}
	}
	if want := []string{"a", "b"}; !slicesEqual(evicted, want) {
		t.Fatalf("evicted keys %v, want %v", evicted, want)
	}
	// Re-using a key keeps it hot: "c" is refreshed, so "d" goes next.
	if _, err := Get(c, "c", build); err != nil {
		t.Fatal(err)
	}
	if _, err := Get(c, "e", build); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "d"}; !slicesEqual(evicted, want) {
		t.Fatalf("evicted keys %v, want %v", evicted, want)
	}
	c.Purge()
	if want := []string{"a", "b", "d"}; !slicesEqual(evicted, want) {
		t.Fatalf("Purge invoked the eviction hook: %v", evicted)
	}
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Len returns the number of cached (including in-flight) entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Purge drops every entry (test hook; in-flight computations finish but
// are no longer findable).
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*list.Element{}
	c.lru.Init()
}
