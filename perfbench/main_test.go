package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The metrics the benchmark prints must be exactly those BENCHMARK.json
// declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	for _, m := range b.EndToEnd {
		if u, ok := endToEnd[m.Name]; !ok || u != m.Unit {
			t.Errorf("end-to-end %s %s in BENCHMARK.json, unit %q here", m.Name, m.Unit, u)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for _, m := range b.PerLayer {
		if u, ok := perLayer[m.Name]; !ok || u != m.Unit {
			t.Errorf("per-layer %s %s in BENCHMARK.json, unit %q here", m.Name, m.Unit, u)
		}
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
}
