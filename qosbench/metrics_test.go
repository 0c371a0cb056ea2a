package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesTables keeps ../BENCHMARK.json and the metric
// tables in step: names, units and workloads are read from the file,
// and the runs print them from the tables.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	match := func(kind string, file []struct{ Name, Unit string }, table []metricDef) {
		if len(file) != len(table) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the table %d", kind, len(file), len(table))
			return
		}
		for i, m := range file {
			if m.Name != table[i].name || m.Unit != table[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), table %s (%s)", kind, i, m.Name, m.Unit, table[i].name, table[i].unit)
			}
		}
	}
	match("end_to_end", b.EndToEnd, endToEnd)
	match("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}

func TestBuildRefusesMissingMetric(t *testing.T) {
	o := newOutcome()
	for _, d := range endToEnd[1:] {
		o.values[d.name] = 1
	}
	if _, err := o.build(endToEnd); err == nil {
		t.Fatal("report built without setup_s")
	}
	o.values[endToEnd[0].name] = 1
	o.check(nil)
	r, err := o.build(endToEnd)
	if err != nil || !r.Correct {
		t.Fatalf("complete outcome: %+v, %v", r, err)
	}
	o.check(os.ErrInvalid)
	if r, _ := o.build(endToEnd); r.Correct {
		t.Fatal("failed check reported as correct")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := quantile(xs, 0.9); got != 4.6 {
		t.Fatalf("p90 = %v", got)
	}
	if xs[0] != 4 {
		t.Fatal("quantile sorted its input")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "cycle", Start: 0, End: ms(10)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(1), End: ms(4)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(3), End: ms(6)},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: ms(8), End: ms(12)}, // runs past its parent
	}
	self := selfTimes(spans)
	if got := self[1]; got != 3*time.Millisecond {
		t.Fatalf("cycle self time = %v, want 3ms", got)
	}
	if got := self[2]; got != 3*time.Millisecond {
		t.Fatalf("leaf self time = %v, want its duration", got)
	}
}

func TestWindowRates(t *testing.T) {
	var done []time.Duration
	for i := 1; i <= 10; i++ {
		done = append(done, time.Duration(i)*100*time.Millisecond)
	}
	done[9] = 5 * time.Second // one stalled window
	rates := windowRates(done, 3)
	if len(rates) != 3 || rates[0] != 10 || median(rates) != 10 {
		t.Fatalf("rates = %v", rates)
	}
	if r := windowRates(done[:3], 150); len(r) != 1 || r[0] != 10 {
		t.Fatalf("short run rates = %v", r)
	}
}
