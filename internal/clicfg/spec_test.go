package clicfg

import (
	"encoding/json"
	"strings"
	"testing"
)

// validRunSpecs and invalidRunSpecs are the Validate cases; FuzzRunSpec
// seeds its corpus with them too.
var (
	validRunSpecs = []RunSpec{
		{Algo: "sp"},
		{Algo: "drl", Train: &TrainSpec{Episodes: 5}},
		{Algo: "gcasp", MaxBatch: 8},
		{Algo: "central", Topology: "Abilene", Pattern: "mmpp", Faults: "node-outage:count=1"},
	}
	invalidRunSpecs = []struct {
		spec RunSpec
		want string
	}{
		{RunSpec{}, "algo"},
		{RunSpec{Algo: "dqn"}, "algo"},
		{RunSpec{Algo: "sp", Seeds: -1}, "seeds"},
		{RunSpec{Algo: "sp", Topology: "Nowhere"}, "Nowhere"},
		{RunSpec{Algo: "sp", Pattern: "burst"}, "pattern"},
		{RunSpec{Algo: "sp", Faults: "meteor-strike"}, "meteor-strike"},
		{RunSpec{Algo: "sp", Train: &TrainSpec{Episodes: 5}}, "drl"},
		{RunSpec{Algo: "sp", MaxBatch: -1}, "max_batch"},
	}
)

func TestRunSpecValidate(t *testing.T) {
	for i, s := range validRunSpecs {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %d: unexpected error %v", i, err)
		}
	}
	for i, tc := range invalidRunSpecs {
		err := tc.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("spec %d: error = %v, want mention of %q", i, err, tc.want)
		}
	}
}

func TestRunSpecScenario(t *testing.T) {
	s := RunSpec{
		Algo:      "sp",
		Topology:  "Abilene",
		Ingresses: 3,
		Deadline:  40,
		Pattern:   "fixed",
		Faults:    "node-outage:count=1,seed=7",
	}
	sc, err := s.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.NumIngresses != 3 || sc.Deadline != 40 || sc.Horizon != specHorizonDefault {
		t.Errorf("scenario fields wrong: %+v", sc)
	}
	if !strings.HasPrefix(sc.Traffic.Label, "fixed") {
		t.Errorf("traffic label = %q, want fixed arrivals", sc.Traffic.Label)
	}
	if sc.Faults.Profile == "" {
		t.Error("fault spec not carried into scenario")
	}
	if _, err := sc.Instantiate(0); err != nil {
		t.Errorf("resolved scenario does not instantiate: %v", err)
	}
}

func TestRunSpecDefaults(t *testing.T) {
	s := RunSpec{Algo: "sp"}
	if s.EvalSeeds() != 3 {
		t.Errorf("EvalSeeds = %d, want 3", s.EvalSeeds())
	}
	sc, err := s.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Topology != "Abilene" || sc.NumIngresses != 2 || sc.Deadline != 100 {
		t.Errorf("base defaults wrong: %+v", sc)
	}
	if b := s.TrainBudget(); b.Episodes != 600 {
		t.Errorf("default train budget episodes = %d, want 600", b.Episodes)
	}
	if b := (RunSpec{Algo: "drl", Train: &TrainSpec{Episodes: 7, Seeds: 1}}).TrainBudget(); b.Episodes != 7 || b.Seeds != 1 {
		t.Errorf("train override not applied: %+v", b)
	}
}

func TestSweepExpandCrossProduct(t *testing.T) {
	sw := SweepSpec{
		Base: RunSpec{Algo: "sp", Horizon: 200},
		Axes: []SweepAxis{
			{Param: "algo", Values: []string{"sp", "gcasp"}},
			{Param: "max_batch", Values: []string{"0", "8"}},
		},
	}
	pts, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("expanded to %d points, want 4", len(pts))
	}
	wantLabels := []string{"algo=sp,max_batch=0", "algo=sp,max_batch=8", "algo=gcasp,max_batch=0", "algo=gcasp,max_batch=8"}
	for i, p := range pts {
		if p.Label != wantLabels[i] {
			t.Errorf("point %d label = %q, want %q", i, p.Label, wantLabels[i])
		}
		if p.Spec.Horizon != 200 {
			t.Errorf("point %d lost base horizon: %+v", i, p.Spec)
		}
	}
	if pts[1].Spec.MaxBatch != 8 || pts[2].Spec.Algo != "gcasp" {
		t.Errorf("axis values not applied: %+v", pts)
	}
}

func TestSweepExpandNoAxes(t *testing.T) {
	pts, err := SweepSpec{Base: RunSpec{Algo: "sp"}}.Expand()
	if err != nil || len(pts) != 1 || pts[0].Label != "base" {
		t.Errorf("no-axis sweep = %v, %v; want one base point", pts, err)
	}
}

// rejectedSweeps are the Expand rejection cases (FuzzRunSpec seeds too).
var rejectedSweeps = []struct {
	sw   SweepSpec
	want string
}{
	{SweepSpec{Base: RunSpec{Algo: "sp"}, Axes: []SweepAxis{{Param: "color", Values: []string{"red"}}}}, "unknown"},
	// A removed param must fail loudly, not silently run sequential.
	{SweepSpec{Base: RunSpec{Algo: "sp"}, Axes: []SweepAxis{{Param: "shards", Values: []string{"2"}}}}, "unknown"},
	{SweepSpec{Base: RunSpec{Algo: "sp"}, Axes: []SweepAxis{{Param: "max_batch"}}}, "no values"},
	{SweepSpec{Base: RunSpec{Algo: "sp"}, Axes: []SweepAxis{{Param: "max_batch", Values: []string{"two"}}}}, "max_batch"},
	// A point that only becomes invalid after combination: a training
	// budget is drl-only.
	{SweepSpec{Base: RunSpec{Algo: "drl", Train: &TrainSpec{Episodes: 5}}, Axes: []SweepAxis{
		{Param: "algo", Values: []string{"sp"}},
	}}, "drl"},
}

func TestSweepExpandRejections(t *testing.T) {
	for i, tc := range rejectedSweeps {
		_, err := tc.sw.Expand()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: error = %v, want mention of %q", i, err, tc.want)
		}
	}
	big := SweepSpec{Base: RunSpec{Algo: "sp"}}
	vals := make([]string, 17)
	for i := range vals {
		vals[i] = "1"
	}
	big.Axes = []SweepAxis{{Param: "seed", Values: vals}, {Param: "seed", Values: vals}}
	if _, err := big.Expand(); err == nil || !strings.Contains(err.Error(), "points") {
		t.Errorf("oversized sweep error = %v, want cap message", err)
	}
}

// TestSpecJSONRoundTrip pins that a spec survives the HTTP boundary:
// what the controller stores in the manifest re-parses to the same
// spec.
func TestSpecJSONRoundTrip(t *testing.T) {
	sw := SweepSpec{
		Name: "night-sweep",
		Base: RunSpec{Algo: "drl", Seeds: 2, Pattern: "mmpp", Train: &TrainSpec{Episodes: 9}},
		Axes: []SweepAxis{{Param: "max_batch", Values: []string{"0", "16"}}},
	}
	raw, err := json.Marshal(sw)
	if err != nil {
		t.Fatal(err)
	}
	var back SweepSpec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != sw.Name || back.Base.Pattern != "mmpp" || back.Base.Train.Episodes != 9 ||
		len(back.Axes) != 1 || back.Axes[0].Values[1] != "16" {
		t.Errorf("round trip lost fields: %+v", back)
	}
}
