package main

import (
	"fmt"
	"math"
)

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's vocabulary; BENCHMARK.json lists the same names
// (TestBenchmarkJSONMatches pins that).
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported on every
// workload.
var endToEnd = []metricDef{
	{"flows_per_s", "1/s"},
	{"steps_per_s", "1/s"},
	{"decide_p50_us", "us"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics of a traced run. A layer that does not run
// on a workload reports 0 there.
var perLayer = []metricDef{
	{"decide_p99_us", "us"},
	{"eval.instantiate_s", "s"},
	{"coord.deploy_s", "s"},
	{"coord.deploy_heap_mb", "MB"},
	{"coord.observe_ns", "ns"},
	{"coord.decide_ns", "ns"},
	{"coord.batch_rows", "count"},
	{"nn.forward_ns", "ns"},
	{"nn.forward_batch_ns_per_row", "ns"},
	{"nn.softmax_ns", "ns"},
	{"nn.sample_ns", "ns"},
	{"baselines.decide_ns", "ns"},
	{"simnet.self_ns_per_flow", "ns"},
	{"simnet.decisions_per_flow", "count"},
	{"simnet.forwards_per_flow", "count"},
	{"simnet.processings_per_flow", "count"},
	{"simnet.success_ratio", "ratio"},
	{"rl.rollout_ms", "ms"},
	{"rl.update_ms", "ms"},
	{"rl.steps_per_episode", "count"},
	{"agentnet.send_ns", "ns"},
	{"agentnet.net_ns", "ns"},
	{"agentnet.queue_ns", "ns"},
	{"agentnet.infer_ns", "ns"},
	{"agentnet.return_ns", "ns"},
	{"agentnet.failed_decisions", "count"},
	{"trace.overhead_pct", "%"},
}

// complete checks that the report carries every metric of the run's
// kind, filling per-layer metrics of layers the workload does not run
// with 0, and that no value is NaN or infinite.
func (r *report) complete(traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		switch {
		case !ok && traced:
			r.set(d.name, 0, d.unit)
		case !ok:
			return fmt.Errorf("metric %s was not measured", d.name)
		case m.Unit != d.unit:
			return fmt.Errorf("metric %s has unit %s, want %s", d.name, m.Unit, d.unit)
		}
	}
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return nil
}

// perSecond returns n/seconds, or 0 when no time was measured.
func perSecond(n, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return n / seconds
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
