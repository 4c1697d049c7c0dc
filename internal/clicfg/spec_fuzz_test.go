package clicfg

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzRunSpec drives the controller's strict spec decoder with arbitrary
// bytes, decoding them both as a RunSpec and as a SweepSpec. The
// invariant: a RunSpec that Validate accepts resolves to a scenario and
// run options without error or panic, and a SweepSpec either fails
// Expand or expands to at most maxSweepPoints valid, resolvable points.
// `go test` replays the seed corpus (the spec_test.go cases);
// `go test -fuzz=FuzzRunSpec` explores further.
func FuzzRunSpec(f *testing.F) {
	add := func(v any) {
		raw, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, s := range validRunSpecs {
		add(s)
		add(SweepSpec{Base: s})
	}
	for _, tc := range invalidRunSpecs {
		add(tc.spec)
	}
	for _, tc := range rejectedSweeps {
		add(tc.sw)
	}
	add(SweepSpec{Base: RunSpec{Algo: "sp", Horizon: 200}, Axes: []SweepAxis{
		{Param: "algo", Values: []string{"sp", "gcasp"}},
		{Param: "max_batch", Values: []string{"0", "8"}},
	}})
	f.Add([]byte(``))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"algo":"sp","shards":2}`))
	f.Add([]byte(`{"base":{"algo":"sp"},"axes":[{"param":"seed","values":["1","2"]},{"param":"deadline","values":["-1"]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		var s RunSpec
		if DecodeSpec(bytes.NewReader(data), &s) == nil && s.Validate() == nil {
			if _, err := s.Scenario(); err != nil {
				t.Fatalf("validated spec %q does not resolve: %v", data, err)
			}
			_ = s.RunOptions()
		}
		var sw SweepSpec
		if DecodeSpec(bytes.NewReader(data), &sw) != nil {
			return
		}
		points, err := sw.Expand()
		if err != nil {
			return
		}
		if len(points) == 0 || len(points) > maxSweepPoints {
			t.Fatalf("sweep %q expanded to %d points, want 1..%d", data, len(points), maxSweepPoints)
		}
		for _, p := range points {
			if err := p.Spec.Validate(); err != nil {
				t.Fatalf("sweep %q point %q does not validate: %v", data, p.Label, err)
			}
			if _, err := p.Spec.Scenario(); err != nil {
				t.Fatalf("sweep %q point %q does not resolve: %v", data, p.Label, err)
			}
			_ = p.Spec.RunOptions()
		}
	})
}
