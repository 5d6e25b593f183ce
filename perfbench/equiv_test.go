package main

import (
	"reflect"
	"testing"

	"flattree/internal/experiments"
)

// The equivalence tests run each batch workload at the default seed and a
// reduced size beside the experiment it mirrors, so the benchmark keeps
// timing the real pipeline and not a copy that has drifted.

func testChild(workload string) *child {
	c := newChild(workload, defaultSeed)
	c.work = true
	return c
}

func TestFCTBatchEqualsFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Figure 8 cells")
	}
	cfg := fctConfig{
		workloads: []string{"web"},
		networks:  []experiments.Fig8Network{experiments.FTGlobal, experiments.FTClosECMP, experiments.TwoStageRG},
	}
	c := testChild(wFCT)
	cells, err := fctSetup(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, errs := fctPass(c, cells, -1)
	want, err := experiments.Config{Seed: defaultSeed}.Fig8With(cfg.workloads, cfg.networks)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Series) != len(cells) {
		t.Fatalf("%d series, %d cells", len(want.Series), len(cells))
	}
	for i, cl := range cells {
		if errs[i] != nil {
			t.Fatalf("%s: %v", cl.key(), errs[i])
		}
		s := want.Series[i]
		if s.Network != cl.network || s.Workload != cl.workload {
			t.Fatalf("cell %d is %s, series is %v/%s", i, cl.key(), s.Network, s.Workload)
		}
		if got := fctFCTs(results[i]); !reflect.DeepEqual(got, s.FCTs) {
			t.Errorf("%s: FCTs differ from Fig8With", cl.key())
		}
	}
}

func TestChurnReplayEqualsChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the churn experiment")
	}
	c := testChild(wChurn)
	st, err := churnSetup(c)
	if err != nil {
		t.Fatal(err)
	}
	cells := churnPass(c, st, []int64{defaultSeed}, -1)
	want, err := experiments.Config{Seed: defaultSeed}.Churn()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(want) {
		t.Fatalf("%d cells, %d rows", len(cells), len(want))
	}
	for i, cl := range cells {
		for _, e := range []error{cl.errTrace, cl.errComp, cl.errBase, cl.errRun} {
			if e != nil {
				t.Fatalf("%s: %v", cl.key(), e)
			}
		}
		if got := churnRow(cl); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s: row\n got %+v\nwant %+v", cl.key(), got, want[i])
		}
	}
}

func TestFBMixStreamEqualsFBMix(t *testing.T) {
	const n = 3000
	c := testChild(wMix)
	st, err := fbmixSetup(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fbmixPass(c, st, n, -1)
	if err != nil {
		t.Fatal(err)
	}
	if c.rep.Failed != 0 {
		t.Fatalf("invariants failed: %v", c.rep.Failures)
	}
	want, err := experiments.Config{Seed: defaultSeed, FBMixFlows: n}.FBMix()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d summaries, %d rows", len(got), len(want))
	}
	for i, w := range want {
		if g := got[i]; g != (fbmixSummary(w)) {
			t.Errorf("trace %s:\n got %+v\nwant %+v", w.Workload, g, w)
		}
	}
}
