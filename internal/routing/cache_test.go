package routing

import (
	"fmt"
	"reflect"
	"testing"

	"flattree/internal/core"
	"flattree/internal/parallel"
	"flattree/internal/topo"
)

func cacheTestTopo(t *testing.T) *topo.Topology {
	t.Helper()
	p := topo.ClosParams{
		Name: "cache-mini", Pods: 2, EdgesPerPod: 2, AggsPerPod: 2,
		ServersPerEdge: 2, EdgeUplinks: 2, AggUplinks: 2, Cores: 4,
	}
	nw, err := core.New(p, core.Options{N: 1, M: 1, Pattern: core.Pattern1})
	if err != nil {
		t.Fatal(err)
	}
	nw.SetMode(core.ModeGlobal)
	return nw.Realize().Topo
}

func TestBuildKShortestCachedPointerEqual(t *testing.T) {
	PurgeCache()
	defer PurgeCache()
	tp := cacheTestTopo(t)
	a := BuildKShortestCached(tp, 4)
	b := BuildKShortestCached(tp, 4)
	if a != b {
		t.Fatal("identical (topology, k) built two distinct tables")
	}
}

func TestBuildKShortestCachedSharesAcrossRealizations(t *testing.T) {
	PurgeCache()
	defer PurgeCache()
	a := BuildKShortestCached(cacheTestTopo(t), 4)
	b := BuildKShortestCached(cacheTestTopo(t), 4)
	if a != b {
		t.Fatal("structurally identical realizations did not share a table")
	}
}

// TestBuildKShortestCachedDerivesSmallerK pins the superset rule: after a
// k=8 table is cached, a k=4 request is served from it and equals a table
// built directly at k=4.
func TestBuildKShortestCachedDerivesSmallerK(t *testing.T) {
	PurgeCache()
	defer PurgeCache()
	tp := cacheTestTopo(t)
	big := BuildKShortestCached(tp, 8)
	small := BuildKShortestCached(tp, 4)
	if small.K != 4 {
		t.Fatalf("derived table has K=%d", small.K)
	}
	direct := BuildKShortest(tp, 4)
	if len(small.Paths) != len(direct.Paths) {
		t.Fatalf("derived table has %d pairs, direct %d", len(small.Paths), len(direct.Paths))
	}
	for pk, want := range direct.Paths {
		got := small.Paths[pk]
		if len(got) != len(want) {
			t.Fatalf("pair %v: %d paths derived, %d direct", pk, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i].Nodes, want[i].Nodes) {
				t.Fatalf("pair %v path %d: derived %v, direct %v", pk, i, got[i].Nodes, want[i].Nodes)
			}
		}
	}
	// The derived view must also be memoized: a second k=4 request returns
	// the same pointer, and the big table is untouched.
	if again := BuildKShortestCached(tp, 4); again != small {
		t.Fatal("derived view was not memoized")
	}
	if big.K != 8 {
		t.Fatal("superset table was modified")
	}
}

// TestCachedTableEvictionPurgesMaxK pins the eviction bug: once the
// max-k table is evicted by LRU pressure, its tableMaxK record must go
// with it — otherwise every smaller-k request peeks a dead entry forever
// and the index grows without bound across fingerprints.
func TestCachedTableEvictionPurgesMaxK(t *testing.T) {
	PurgeCache()
	defer PurgeCache()
	tp := cacheTestTopo(t)
	BuildKShortestCached(tp, 6)
	fp := tp.Fingerprint()
	// Flood the cache far past capacity so the route table is evicted.
	for i := 0; i < 100; i++ {
		if _, err := parallel.Get(tableCache, fmt.Sprintf("flood|%d", i), func() (*Table, error) {
			return &Table{}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	tableMaxKMu.Lock()
	_, stale := tableMaxK[fp]
	tableMaxKMu.Unlock()
	if stale {
		t.Fatal("tableMaxK record survived eviction of its table")
	}
	// A smaller-k request now rebuilds cleanly and re-records its k.
	got := BuildKShortestCached(tp, 3)
	want := BuildKShortest(tp, 3)
	if len(got.Paths) != len(want.Paths) || got.K != 3 {
		t.Fatalf("rebuilt table K=%d with %d pairs, want K=3 with %d", got.K, len(got.Paths), len(want.Paths))
	}
	tableMaxKMu.Lock()
	rec := tableMaxK[fp]
	tableMaxKMu.Unlock()
	if rec != 3 {
		t.Fatalf("tableMaxK[fp] = %d after rebuild, want 3", rec)
	}
}

// TestCachedTableStaleMaxKRepaired pins the Peek-miss repair: a record
// pointing at a key the cache no longer holds is dropped on first use
// instead of being consulted forever.
func TestCachedTableStaleMaxKRepaired(t *testing.T) {
	PurgeCache()
	defer PurgeCache()
	tp := cacheTestTopo(t)
	fp := tp.Fingerprint()
	tableMaxKMu.Lock()
	tableMaxK[fp] = 99 // simulate a record orphaned by eviction
	tableMaxKMu.Unlock()
	got := BuildKShortestCached(tp, 3)
	want := BuildKShortest(tp, 3)
	if got.K != 3 || len(got.Paths) != len(want.Paths) {
		t.Fatalf("table built under stale record: K=%d, %d pairs", got.K, len(got.Paths))
	}
	tableMaxKMu.Lock()
	rec := tableMaxK[fp]
	tableMaxKMu.Unlock()
	if rec != 3 {
		t.Fatalf("stale tableMaxK record = %d, want repaired to 3", rec)
	}
}

// PurgeCache drops every cached route table.
func PurgeCache() {
	tableCache = newTableCache()
	tableMaxKMu.Lock()
	tableMaxK = map[string]int{}
	tableMaxKMu.Unlock()
}
