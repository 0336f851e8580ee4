package main

// The traced run's span recorder. Spans wrap the benchmark's own calls
// into each layer's public API; nothing inside the program is
// instrumented. Spans stay in memory and are written out once, at the
// end of the run.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call. Start and End are nanoseconds since the
// tracer started; Parent indexes the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// dur is the span's duration; a span a panic left open counts as
// empty.
func (s span) dur() time.Duration {
	if s.End < s.Start {
		return 0
	}
	return time.Duration(s.End - s.Start)
}

// tracer records spans. A nil *tracer records nothing, so the untraced
// run pays one nil check per layer call.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) for operation op and
// returns its index.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// selfTimes returns each span's duration minus the part its children
// cover. Children of one span never overlap: every workload is a
// single closed-loop client.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// layerSelf groups self times by span name.
func (t *tracer) layerSelf() map[string][]time.Duration {
	self := t.selfTimes()
	out := map[string][]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], self[i])
	}
	return out
}

// uncovered returns, over all spans named root, the share of their
// total duration that no child span covers.
func (t *tracer) uncovered(root string) float64 {
	self := t.selfTimes()
	var total, free time.Duration
	for i, s := range t.spans {
		if s.Name == root {
			total += s.dur()
			free += self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(free) / float64(total)
}

// layerTable renders per-layer self time totals, largest first.
func (t *tracer) layerTable() string {
	type row struct {
		name  string
		n     int
		total time.Duration
	}
	var rows []row
	for name, ds := range t.layerSelf() {
		r := row{name: name, n: len(ds)}
		for _, d := range ds {
			r.total += d
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].total > rows[j].total })
	s := ""
	for _, r := range rows {
		s += fmt.Sprintf("layer %-14s spans=%-6d self_total=%-14v self_mean=%v\n",
			r.name, r.n, r.total, r.total/time.Duration(r.n))
	}
	return s
}

// write stores the spans as JSON lines, after a header line holding
// the environment record.
func (t *tracer) write(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
