package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricTableMatchesBenchmarkJSON keeps BENCHMARK.json, which
// describes the benchmark to its runner, in step with the tables the
// program reports from.
func TestMetricTableMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %+v", i, doc.Workloads[i], w)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
