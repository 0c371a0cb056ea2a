package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// Spans of a traced run. They are recorded by the benchmark around its
// own calls into each layer's public functions (the program carries no
// tracing of its own here), kept in memory, and written out when the
// run ends.

// span is one timed call. Parent is the ID of the enclosing span, 0 for
// a root; Cycle ties the spans of one establish→renegotiate→teardown
// cycle (or one simulation run) together.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Cycle  int    `json:"cycle"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog records spans for one goroutine; merge logs before writing.
type spanLog struct {
	epoch time.Time
	base  int // ID offset keeping IDs unique across merged logs
	spans []span
}

func newSpanLog(epoch time.Time, base int) *spanLog {
	return &spanLog{epoch: epoch, base: base}
}

// begin opens a span and returns its ID; end closes it. A nil log
// records nothing, so untraced runs share the traced code.
func (l *spanLog) begin(name string, parent, cycle int) int {
	if l == nil {
		return 0
	}
	id := l.base + len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Cycle: cycle, Name: name,
		Start: time.Since(l.epoch).Nanoseconds(),
	})
	return id
}

func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	l.spans[id-l.base-1].End = time.Since(l.epoch).Nanoseconds()
}

// durations returns the durations in microseconds of every span named
// name.
func durationsUS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children are counted once).
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered int64
		cur, curEnd := int64(-1), int64(-1)
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50US   float64 `json:"p50_us"`
}

func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	by := map[string]*spanSummary{}
	durs := map[string][]float64{}
	for _, s := range spans {
		sm := by[s.Name]
		if sm == nil {
			sm = &spanSummary{Name: s.Name}
			by[s.Name] = sm
		}
		sm.Count++
		sm.TotalMS += float64(s.dur()) / 1e6
		sm.SelfMS += float64(self[s.ID]) / 1e6
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e3)
	}
	out := make([]spanSummary, 0, len(by))
	for name, sm := range by {
		sm.P50US = median(durs[name])
		out = append(out, *sm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// writeSpans writes every span as one JSON line to path and prints the
// per-name self-time summary to w.
func writeSpans(path string, spans []span, w io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "spans: %d written to %s\n", len(spans), path)
	fmt.Fprintf(w, "%-28s %8s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "p50_us")
	for _, sm := range summarize(spans) {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f %10.2f\n", sm.Name, sm.Count, sm.TotalMS, sm.SelfMS, sm.P50US)
	}
	return nil
}
