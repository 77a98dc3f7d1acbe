package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// program prints in step: same names, same units, same order.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []spec `json:"end_to_end"`
		PerLayer []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not runnable", w.Name)
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(bench.Workloads), len(workloads))
	}
	compare := func(what string, got []spec, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, program prints %s %s",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", bench.EndToEnd, e2eMetrics)
	compare("per_layer", bench.PerLayer, layerMetrics)
	for _, m := range bench.EndToEnd {
		if m.Name != "setup_s" && m.Bound > bench.EndToEnd[0].Bound {
			t.Errorf("%s bound %g exceeds setup_s's %g", m.Name, m.Bound, bench.EndToEnd[0].Bound)
		}
	}
}
