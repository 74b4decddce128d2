package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the metrics
// and workloads this program reports in step.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEndDefs) {
		t.Errorf("BENCHMARK.json end_to_end differs from the program's:\n%v\n%v", bf.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayerDefs) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's")
	}
}

// TestEveryMetricReported: an untraced run reports exactly the
// end-to-end metrics and a traced run exactly the per-layer ones, on
// every workload, even when a layer saw no traffic.
func TestEveryMetricReported(t *testing.T) {
	win := windowResult{ops: []opResult{{}}, elapsed: time.Second, cpu: time.Millisecond}
	rec := &record{Attempted: 1}
	keys := func(m map[string]metric) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	names := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.Name)
		}
		sort.Strings(out)
		return out
	}
	if got := keys(endToEnd(win, []setupTimes{{}}, rec)); !reflect.DeepEqual(got, names(endToEndDefs)) {
		t.Errorf("end-to-end metrics %v, want %v", got, names(endToEndDefs))
	}
	for name, w := range workloads {
		m := perLayer(w, win, win, layerSnap{}, indexSpans(nil), map[string]rungResult{}, []setupTimes{{}})
		if got := keys(m); !reflect.DeepEqual(got, names(perLayerDefs)) {
			t.Errorf("%s: per-layer metrics differ from the definitions", name)
		}
		for k, v := range m {
			if v.Unit == "" {
				t.Errorf("%s: %s has no unit", name, k)
			}
		}
	}
}
