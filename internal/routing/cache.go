package routing

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"flattree/internal/parallel"
	"flattree/internal/topo"
)

// Cross-run route-table cache: experiment cells across Table 2, Figures
// 6-8, and the ablations repeatedly realize structurally identical
// topologies and rebuild the same Yen tables. Tables are memoized by
// (topology fingerprint, k); a request for a smaller k than an already
// cached table is served as a WithK view of the larger table (Yen is
// incremental, so the first k paths of a k'-table, k' > k, equal a
// k-table — see WithK). Hits/misses/evictions flow into telemetry under
// cache="route".

var (
	tableCache = newTableCache()

	// tableMaxKMu guards tableMaxK: fingerprint -> largest k built so far,
	// used to find a superset table to derive smaller-k views from. The
	// eviction hook below keeps each record tied to a live cache entry, so
	// the index cannot grow past the cache capacity or point at an evicted
	// table.
	tableMaxKMu sync.Mutex
	tableMaxK   = map[string]int{}
)

// newTableCache returns an empty table cache whose eviction hook drops
// the evicted table's tableMaxK record.
func newTableCache() *parallel.Cache {
	c := parallel.NewCache("route", 64)
	c.OnEvict(func(key string) {
		fp, k, ok := parseTableKey(key)
		if !ok {
			return
		}
		tableMaxKMu.Lock()
		if tableMaxK[fp] == k {
			delete(tableMaxK, fp)
		}
		tableMaxKMu.Unlock()
	})
	return c
}

func tableKey(fp string, k int) string { return fmt.Sprintf("%s|k=%d", fp, k) }

// parseTableKey inverts tableKey.
func parseTableKey(key string) (fp string, k int, ok bool) {
	i := strings.LastIndex(key, "|k=")
	if i < 0 {
		return "", 0, false
	}
	k, err := strconv.Atoi(key[i+len("|k="):])
	if err != nil {
		return "", 0, false
	}
	return key[:i], k, true
}

// BuildKShortestCached returns a route table for the realized topology,
// reusing a previously built table for any structurally identical
// topology. Identical (fingerprint, k) requests return the identical
// *Table. The cached table holds a reference to the topology it was first
// built against; topologies must not be mutated after realization (none
// of the experiment paths do — failure studies rebuild instead).
func BuildKShortestCached(t *topo.Topology, k int) *Table {
	if k < 1 {
		panic(fmt.Sprintf("routing: k = %d", k))
	}
	fp := t.Fingerprint()
	tb, _ := parallel.Get(tableCache, tableKey(fp, k), func() (*Table, error) {
		tableMaxKMu.Lock()
		maxK := tableMaxK[fp]
		tableMaxKMu.Unlock()
		if maxK > k {
			if v, ok := tableCache.Peek(tableKey(fp, maxK)); ok {
				return v.(*Table).WithK(k), nil
			}
			// The superset table is gone (evicted between the hook firing
			// and this Peek, or recorded before the hook existed): drop the
			// stale record so later requests stop peeking a dead entry.
			tableMaxKMu.Lock()
			if tableMaxK[fp] == maxK {
				delete(tableMaxK, fp)
			}
			tableMaxKMu.Unlock()
		}
		tb := BuildKShortest(t, k)
		tableMaxKMu.Lock()
		if k > tableMaxK[fp] {
			tableMaxK[fp] = k
		}
		tableMaxKMu.Unlock()
		return tb, nil
	})
	return tb
}
