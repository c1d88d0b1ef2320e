package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

func TestQuantileInterpolates(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 25}, {1, 40}, {0.25, 17.5},
	} {
		if got := quantile(sorted, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples must be NaN")
	}
}

func TestSummarizeKeepsP99OnlyWithEnoughSamples(t *testing.T) {
	small := summarize([]float64{3, 1, 2})
	if small.N != 3 || small.P50 != 2 || small.Mean != 2 || small.Max != 3 || !math.IsNaN(small.P99) {
		t.Errorf("summary of 3 samples = %+v", small)
	}
	xs := make([]float64, minP99Samples)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: summarize must sort
	}
	s := summarize(xs)
	if math.Abs(s.P99-990.01) > 1e-9 || s.P50 != 500.5 || s.Max != 1000 {
		t.Errorf("summary of 1..1000 = %+v", s)
	}
	if xs[0] != 1000 {
		t.Error("summarize reordered its input")
	}
}

func TestTimingNamesPercentiles(t *testing.T) {
	var m metricSet
	ds := make([]time.Duration, minP99Samples)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	m.timing("query", ds, "ms")
	m.timing("none", nil, "ms")
	p50, ok50 := m.get("query_p50_ms")
	_, ok99 := m.get("query_p99_ms")
	if !ok50 || !ok99 || p50.value != 500.5 || p50.n != len(ds) {
		t.Errorf("timing metrics = %+v", m.list)
	}
	if _, ok := m.get("none_p50_ms"); ok {
		t.Error("a timing without samples must not be reported")
	}
}

// TestDeclaredMetrics checks that BENCHMARK.json declares exactly the
// metrics the result line carries.
func TestDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		slices.Sort(out)
		return out
	}
	sorted := func(xs []string) []string {
		out := slices.Clone(xs)
		slices.Sort(out)
		return out
	}
	if got, want := names(decl.EndToEnd), sorted(e2eNames); !slices.Equal(got, want) {
		t.Errorf("end_to_end declares %v, the benchmark reports %v", got, want)
	}
	if got, want := names(decl.PerLayer), sorted(layerNames); !slices.Equal(got, want) {
		t.Errorf("per_layer declares %v, the benchmark reports %v", got, want)
	}
	for _, w := range decl.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %q is not implemented", w.Name)
		}
	}
}
