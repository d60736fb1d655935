package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesDefs keeps the repository's BENCHMARK.json in
// step with the workloads and metrics this program reports.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := doc.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}

	want := map[string]metricDef{}
	for _, d := range endToEnd {
		if d.Line {
			want[d.Name] = metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound}
		}
	}
	if len(doc.EndToEnd) != len(want) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the result line carries %d", len(doc.EndToEnd), len(want))
	}
	for _, d := range doc.EndToEnd {
		if d != want[d.Name] {
			t.Errorf("end-to-end %s: BENCHMARK.json has %+v, the program %+v", d.Name, d, want[d.Name])
		}
	}

	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if doc.PerLayer[i] != d {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, doc.PerLayer[i], d)
		}
	}
}
