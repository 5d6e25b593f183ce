package traffic

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPermutationIsDerangement(t *testing.T) {
	pairs := Permutation(64, 1)
	if len(pairs) != 64 {
		t.Fatalf("pairs = %d, want 64", len(pairs))
	}
	seenDst := map[int]bool{}
	for _, p := range pairs {
		if p.Src == p.Dst {
			t.Fatalf("fixed point at %d", p.Src)
		}
		if seenDst[p.Dst] {
			t.Fatalf("destination %d reused", p.Dst)
		}
		seenDst[p.Dst] = true
	}
}

func TestPermutationDeterministic(t *testing.T) {
	a := Permutation(32, 9)
	b := Permutation(32, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different permutations")
		}
	}
	c := Permutation(32, 10)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical permutations")
	}
}

func TestPodStride(t *testing.T) {
	pairs := PodStride(24, 6)
	for i, p := range pairs {
		if p.Src != i {
			t.Fatalf("src %d, want %d", p.Src, i)
		}
		wantPod := (i/6 + 1) % 4
		if p.Dst/6 != wantPod {
			t.Fatalf("server %d: dst pod %d, want %d", i, p.Dst/6, wantPod)
		}
		if p.Dst%6 != i%6 {
			t.Fatalf("server %d: not the counterpart (%d)", i, p.Dst)
		}
	}
}

func TestHotSpot(t *testing.T) {
	pairs := HotSpot(250, 100)
	// Two full clusters of 100; 50 idle servers.
	if len(pairs) != 2*99 {
		t.Fatalf("pairs = %d, want 198", len(pairs))
	}
	for _, p := range pairs {
		if p.Src != 0 && p.Src != 100 {
			t.Fatalf("broadcast source %d unexpected", p.Src)
		}
		if p.Src/100 != p.Dst/100 {
			t.Fatal("broadcast escaped its cluster")
		}
	}
}

func TestClusteredAllToAll(t *testing.T) {
	pairs := ClusteredAllToAll(16, 4)
	if len(pairs) != 4*4*3 {
		t.Fatalf("pairs = %d, want 48", len(pairs))
	}
	for _, p := range pairs {
		if p.Src/4 != p.Dst/4 || p.Src == p.Dst {
			t.Fatalf("bad pair %v", p)
		}
	}
}

func TestSyntheticDispatch(t *testing.T) {
	for _, pat := range []SyntheticPattern{PatternPermutation, PatternPodStride, PatternHotSpot, PatternManyToMany} {
		pairs := Synthetic(pat, 40, 10, 3)
		if len(pairs) == 0 {
			t.Fatalf("%v produced no pairs", pat)
		}
		for _, p := range pairs {
			if p.Src < 0 || p.Src >= 40 || p.Dst < 0 || p.Dst >= 40 || p.Src == p.Dst {
				t.Fatalf("%v: bad pair %v", pat, p)
			}
		}
	}
	if PatternPermutation.String() != "traffic-1" || PatternManyToMany.String() != "traffic-4" {
		t.Fatal("pattern names wrong")
	}
}

func TestGenerateLocalityMix(t *testing.T) {
	spec := TraceSpec{
		Name: "mix", Servers: 512, ServersPerRack: 8, RacksPerPod: 8,
		FracIntraRack: 0.6, FracIntraPod: 0.3,
		Flows: 20000, Duration: 10, SizeMedianGbit: 1e6, SizeSigma: 1.0, Seed: 4,
	}
	flows, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 20000 {
		t.Fatalf("flows = %d", len(flows))
	}
	counts := map[Locality]int{}
	for _, f := range flows {
		counts[spec.LocalityOf(Pair{f.Src, f.Dst})]++
		if f.Src == f.Dst {
			t.Fatal("self flow")
		}
	}
	tot := float64(len(flows))
	if r := float64(counts[IntraRack]) / tot; math.Abs(r-0.6) > 0.02 {
		t.Fatalf("intra-rack fraction %v, want ~0.6", r)
	}
	if r := float64(counts[IntraPod]) / tot; math.Abs(r-0.3) > 0.02 {
		t.Fatalf("intra-pod fraction %v, want ~0.3", r)
	}
}

func TestGenerateArrivalsMonotone(t *testing.T) {
	spec := TraceSpec{
		Name: "arr", Servers: 64, ServersPerRack: 4, RacksPerPod: 4,
		FracIntraRack: 0.2, FracIntraPod: 0.2,
		Flows: 500, Duration: 5, SizeMedianGbit: 1e6, SizeSigma: 1.5, Seed: 7,
	}
	flows, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	last := 0.0
	for _, f := range flows {
		if f.Arrival < last {
			t.Fatal("arrivals not monotone")
		}
		last = f.Arrival
		if f.Bits <= 0 {
			t.Fatal("nonpositive flow size")
		}
	}
}

func TestTraceSpecValidation(t *testing.T) {
	good := TraceSpec{Name: "g", Servers: 64, ServersPerRack: 4, RacksPerPod: 4,
		FracIntraRack: 0.5, FracIntraPod: 0.3, Flows: 10, Duration: 1,
		SizeMedianGbit: 1, SizeSigma: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []TraceSpec{
		{Name: "b1", Servers: 1, ServersPerRack: 1, RacksPerPod: 1, Flows: 1, Duration: 1, SizeMedianGbit: 1},
		{Name: "b2", Servers: 63, ServersPerRack: 4, RacksPerPod: 4, Flows: 1, Duration: 1, SizeMedianGbit: 1},
		{Name: "b3", Servers: 64, ServersPerRack: 4, RacksPerPod: 4, FracIntraRack: 0.8, FracIntraPod: 0.4, Flows: 1, Duration: 1, SizeMedianGbit: 1},
		{Name: "b4", Servers: 64, ServersPerRack: 4, RacksPerPod: 4, Flows: 0, Duration: 1, SizeMedianGbit: 1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %s accepted", s.Name)
		}
	}
}

func TestFacebookSpecs(t *testing.T) {
	for _, name := range []string{"hadoop-2", "web", "cache"} {
		spec, err := FacebookSpec(name, 512, 8, 8, 5000, 11)
		if err != nil {
			t.Fatal(err)
		}
		flows, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		vol := VolumeByLocality(spec, flows)
		total := vol[IntraRack] + vol[IntraPod] + vol[InterPod]
		gotRack := vol[IntraRack] / total
		gotPod := vol[IntraPod] / total
		// Volume fractions track the flow-count fractions loosely (sizes
		// are iid across classes) — allow 10 points.
		if math.Abs(gotRack-spec.FracIntraRack) > 0.10 {
			t.Errorf("%s: intra-rack volume %v, want ~%v", name, gotRack, spec.FracIntraRack)
		}
		if math.Abs(gotPod-spec.FracIntraPod) > 0.10 {
			t.Errorf("%s: intra-pod volume %v, want ~%v", name, gotPod, spec.FracIntraPod)
		}
	}
	if _, err := FacebookSpec("nope", 512, 8, 8, 10, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestHadoop1Trace(t *testing.T) {
	flows := Hadoop1Trace(96, 8, 50, 1e6, 10, 13)
	if len(flows) != 50*8 {
		t.Fatalf("flows = %d, want 400 (8 per coflow)", len(flows))
	}
	for i := 0; i < len(flows); i += 8 {
		group := flows[i : i+8]
		srcRack := group[0].Src / 8
		dstRack := group[0].Dst / 8
		if srcRack == dstRack {
			t.Fatal("hadoop-1 coflow stayed intra-rack")
		}
		for _, f := range group {
			if f.Src/8 != srcRack || f.Dst/8 != dstRack {
				t.Fatal("coflow expansion escaped its racks")
			}
			if f.Bits != group[0].Bits {
				t.Fatal("coflow flows unequal after 10x/8 split")
			}
		}
	}
}

// Property: generated destinations always differ from sources and stay in
// range, for arbitrary locality mixes.
func TestGenerateProperty(t *testing.T) {
	f := func(fr, fp uint8, seed int64) bool {
		fracRack := float64(fr%100) / 100 * 0.7
		fracPod := float64(fp%100) / 100 * (1 - fracRack)
		spec := TraceSpec{
			Name: "p", Servers: 128, ServersPerRack: 4, RacksPerPod: 8,
			FracIntraRack: fracRack, FracIntraPod: fracPod,
			Flows: 200, Duration: 1, SizeMedianGbit: 1e5, SizeSigma: 1, Seed: seed,
		}
		flows, err := Generate(spec)
		if err != nil {
			return false
		}
		for _, fl := range flows {
			if fl.Src == fl.Dst || fl.Dst < 0 || fl.Dst >= 128 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// VolumeByLocality sums trace volume per locality class; used to verify
// generated traces match the published mixes.
func VolumeByLocality(spec TraceSpec, flows []Flow) map[Locality]float64 {
	out := make(map[Locality]float64)
	for _, f := range flows {
		out[spec.LocalityOf(Pair{Src: f.Src, Dst: f.Dst})] += f.Bits
	}
	return out
}

// LocalityOf classifies a pair under the spec's shape.
func (s TraceSpec) LocalityOf(p Pair) Locality {
	perPod := s.ServersPerRack * s.RacksPerPod
	switch {
	case p.Src/s.ServersPerRack == p.Dst/s.ServersPerRack:
		return IntraRack
	case p.Src/perPod == p.Dst/perPod:
		return IntraPod
	default:
		return InterPod
	}
}
