package flowsim

import (
	"math"
	"math/rand"
	"testing"
)

// Benchmarks for the rate allocator — the inner loop of every throughput
// experiment and of each event in the FCT simulations.

func benchSubflows(nConns, k, nLinks int) ([]float64, []Subflow) {
	caps := make([]float64, nLinks)
	for i := range caps {
		caps[i] = 10
	}
	var subs []Subflow
	for c := 0; c < nConns; c++ {
		for s := 0; s < k; s++ {
			subs = append(subs, Subflow{
				Conn:   c,
				Links:  []int{(c + s) % nLinks, (c + s + 7) % nLinks, (c + s + 13) % nLinks},
				Weight: 1 / float64(k),
			})
		}
	}
	return caps, subs
}

func BenchmarkMaxMinRates128x8(b *testing.B) {
	caps, subs := benchSubflows(128, 8, 400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MaxMinRates(caps, subs); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLargeAlloc is the headline allocator scenario: 100k subflows over
// 16k links with heterogeneous capacities, so saturation staggers across
// many progressive-filling rounds. The seed core re-scans all of caps per
// round and rebuilds every per-link index per call; the SoA core touches
// only loaded links and compacts frozen ones out.
func benchLargeAlloc() ([]float64, []Subflow) {
	rng := rand.New(rand.NewSource(42))
	nLinks := 16_384
	caps := make([]float64, nLinks)
	for l := range caps {
		caps[l] = 1 + 99*rng.Float64()
	}
	const nSubs = 100_000
	subs := make([]Subflow, nSubs)
	for i := range subs {
		links := make([]int, 2+rng.Intn(3))
		for h := range links {
			links[h] = rng.Intn(nLinks)
		}
		w := 1.0
		if i%3 == 0 {
			w = 1.0 / float64(1+rng.Intn(8))
		}
		subs[i] = Subflow{Conn: i, Links: links, Weight: w}
	}
	return caps, subs
}

func BenchmarkAllocLarge(b *testing.B) {
	caps, subs := benchLargeAlloc()
	b.Run("soa", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := MaxMinRates(caps, subs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ref", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := maxMinRatesRef(caps, subs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRunStream measures the streaming event loop end to end: 50k
// short flows pulled lazily, slots recycling through the free list.
func BenchmarkRunStream(b *testing.B) {
	caps := make([]float64, 64)
	for i := range caps {
		caps[i] = 10
	}
	const n = 50_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j := 0
		err := NewSim(caps, nil).RunStream(
			func() (ConnSpec, bool) {
				if j >= n {
					return ConnSpec{}, false
				}
				sp := ConnSpec{
					Paths:   [][]int{{j % 64, (j + 5) % 64}},
					Bits:    0.02 + math.Mod(float64(j)*0.0037, 0.05),
					Arrival: float64(j) * 0.0005,
				}
				j++
				return sp, true
			},
			func(int, ConnResult) {})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimFCT(b *testing.B) {
	caps := make([]float64, 64)
	for i := range caps {
		caps[i] = 10
	}
	specs := make([]ConnSpec, 200)
	for i := range specs {
		specs[i] = ConnSpec{
			Paths:   [][]int{{i % 64, (i + 5) % 64}},
			Bits:    1 + math.Mod(float64(i)*0.37, 5),
			Arrival: float64(i) * 0.001,
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewSim(caps, specs).Run(); err != nil {
			b.Fatal(err)
		}
	}
}
