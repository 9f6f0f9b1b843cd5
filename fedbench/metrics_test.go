package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestMetricsMatchBenchmarkJSON keeps the metric tables in step with the
// repository's BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, table map[string]string) {
		if len(listed) != len(table) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the table %d", kind, len(listed), len(table))
		}
		for _, m := range listed {
			if unit, ok := table[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, table has [%s]", kind, m.Name, m.Unit, unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, fedbench runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in fedbench", i, w.Name, workloads[i])
		}
	}
}

// TestScaledFigures checks that time figures are scaled by the median
// probe time and that the unscaled figures are kept beside them.
func TestScaledFigures(t *testing.T) {
	probes := []time.Duration{3 * probeRef, probeRef, 2 * probeRef}
	if got := slowdown(probes, probeRef); got != 2 {
		t.Fatalf("slowdown = %v, want 2", got)
	}
	if got := slowdown(nil, probeRef); got != 1 {
		t.Fatalf("slowdown(nil) = %v, want 1", got)
	}
	rep := newReport()
	rep.setScaled(2, 10, 4, 8)
	rep.setSetup([]time.Duration{time.Second, 3 * time.Second, 2 * time.Second}, 2)
	want := map[string][2]float64{
		"ops_per_s": {20, 10}, "latency_p50_ms": {2, 4}, "latency_p90_ms": {4, 8}, "setup_s": {1, 2},
	}
	for name, w := range want {
		if got := rep.metrics[name].Value; got != w[0] {
			t.Errorf("%s = %v, want %v", name, got, w[0])
		}
		if got := rep.unscaled[name]; got != w[1] {
			t.Errorf("unscaled %s = %v, want %v", name, got, w[1])
		}
	}
}
