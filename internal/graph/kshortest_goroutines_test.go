package graph

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"flattree/internal/parallel"
)

// TestKShortestAllPairsGoroutineBound is the regression test for the
// unbounded fan-out KShortestAllPairs once had (one goroutine per pair —
// thousands of goroutines on a k=16 fabric). All-pairs Yen now runs on the
// bounded pool, so peak goroutine count during a many-pair computation
// must stay within pool size + slack of the pre-call baseline, however
// many pairs are requested.
func TestKShortestAllPairsGoroutineBound(t *testing.T) {
	const workers = 4
	parallel.SetDefaultWorkers(workers)
	defer parallel.SetDefaultWorkers(0)

	// A ring with chords: enough nodes and path diversity that Yen does
	// real work for every one of the ~1.6k ordered pairs.
	const n = 40
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddLink(i, (i+1)%n, 1)
		g.AddLink(i, (i+7)%n, 1)
	}
	var pairs []PairKey
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				pairs = append(pairs, PairKey{Src: a, Dst: b})
			}
		}
	}

	base := runtime.NumGoroutine()
	stop := make(chan struct{})
	sampled := make(chan struct{})
	var peak atomic.Int64
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if g := int64(runtime.NumGoroutine()); g > peak.Load() {
				peak.Store(g)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()

	out := g.KShortestAllPairs(pairs, 4)
	close(stop)
	<-sampled

	if len(out) != len(pairs) {
		t.Fatalf("got %d pair entries, want %d", len(out), len(pairs))
	}
	// Slack: the sampler goroutine plus whatever the test harness runs.
	if got, limit := peak.Load(), int64(base+workers+4); got > limit {
		t.Fatalf("peak goroutine count %d exceeds baseline %d + pool size %d + slack (unbounded fan-out regression)",
			got, base, workers)
	}
}

// TestKShortestAllPairsDeterministicAcrossWorkerCounts pins the hard
// determinism requirement: the same input yields an identical table with
// 1 worker and with many.
func TestKShortestAllPairsDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 16
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddLink(i, (i+1)%n, 1)
		g.AddLink(i, (i+5)%n, 1)
	}
	var pairs []PairKey
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				pairs = append(pairs, PairKey{Src: a, Dst: b})
			}
		}
	}

	run := func(workers int) [][]Path {
		parallel.SetDefaultWorkers(workers)
		defer parallel.SetDefaultWorkers(0)
		return g.KShortestAllPairs(pairs, 3)
	}
	serial := run(1)
	wide := run(8)
	if len(serial) != len(wide) {
		t.Fatalf("table sizes differ: %d vs %d", len(serial), len(wide))
	}
	for pk, want := range serial {
		got := wide[pk]
		if len(got) != len(want) {
			t.Fatalf("pair %v: %d paths vs %d", pk, len(got), len(want))
		}
		for i := range want {
			if !equalNodes(got[i].Nodes, want[i].Nodes) {
				t.Fatalf("pair %v path %d differs: %v vs %v", pk, i, got[i].Nodes, want[i].Nodes)
			}
		}
	}
}
