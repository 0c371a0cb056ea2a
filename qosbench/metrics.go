package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The two tables are
// the benchmark's contract with BENCHMARK.json (metrics_test.go keeps
// them in step): an untraced run prints every endToEnd metric, a traced
// run every perLayer metric, on every workload.
type metricDef struct {
	name, unit string
}

// endToEnd are the user-visible metrics. Each is measured on every
// workload; README.md gives the per-workload definition.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"establish_p50_ms", "ms"},
	{"rss_mb", "MB"},
	{"admitted_sessions", "count"},
	{"qos_rank_sum", "count"},
}

// perLayer are the single-layer metrics of a traced run. A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"load.generator_late_p50_ms", "ms"},
	{"served.renegotiate_down_p50_ms", "ms"},
	{"served.renegotiate_up_p50_ms", "ms"},
	{"served.teardown_p50_ms", "ms"},
	{"http.establish_self_us", "us"},
	{"http.request_bytes", "bytes"},
	{"spec.decode_us", "us"},
	{"spec.build_us", "us"},
	{"qrg.build_us", "us"},
	{"qrg.template_hits_per_establish", "ratio"},
	{"qrg.templates_cached", "count"},
	{"core.plan_us", "us"},
	{"broker.snapshot_us", "us"},
	{"broker.reserve_us", "us"},
	{"proxy.establish_us", "us"},
	{"proxy.renegotiate_down_us", "us"},
	{"proxy.renegotiate_up_us", "us"},
	{"proxy.teardown_us", "us"},
	{"proxy.commit_us", "us"},
	{"proxy.admit_retries_per_establish", "ratio"},
	{"wal.appends_per_cycle", "count"},
	{"wal.bytes_per_append", "bytes"},
	{"wal.bytes_per_cycle", "bytes"},
	{"wal.append_fsync_us", "us"},
	{"wal.replay_records", "count"},
	{"wal.replay_s", "s"},
	{"wal.recover_s", "s"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_bytes_per_op", "bytes"},
	{"go.gc_cycles_per_kop", "count"},
	{"trace.ops_per_s", "1/s"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what a workload hands back to main: the operation tally,
// the check verdicts, and every metric it measured by name.
type outcome struct {
	attempted, failed int
	checkErrs         []error
	values            map[string]float64
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) check(err error) {
	if err != nil {
		o.checkErrs = append(o.checkErrs, err)
	}
}

// build selects the metrics of one mode and refuses a missing one, so a
// workload that forgot a metric fails loudly instead of printing a gap.
func (o *outcome) build(defs []metricDef) (report, error) {
	r := report{
		Correct:   len(o.checkErrs) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			return r, fmt.Errorf("metric %s not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r, nil
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowRates splits completion times into runs of size consecutive
// completions and returns each run's completions per second (one run
// over everything when there are too few). Reported as a median, a
// stall from outside the benchmark moves few samples.
func windowRates(done []time.Duration, size int) []float64 {
	t := append([]time.Duration(nil), done...)
	sort.Slice(t, func(i, j int) bool { return t[i] < t[j] })
	if len(t) <= size {
		size = len(t) - 1
	}
	var rates []float64
	for k := size; k < len(t); k += size {
		rates = append(rates, float64(size)/(t[k]-t[k-size]).Seconds())
	}
	return rates
}
