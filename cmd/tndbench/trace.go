package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded
// by the benchmark around calls into the program's public functions,
// never from inside the program. Name is "<layer>.<what>"; Parent is
// the id of the span that caused it (0 for a root); Req ties together
// the spans of one mine, batch or request.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Req    int     `json:"req"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	start  time.Duration
	end    time.Duration
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id for use as a parent.
func (t *tracer) add(parent int, name string, req int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Req: req,
		start: start.Sub(t.t0), end: end.Sub(t.t0),
	})
	return id
}

// rootLayer names the benchmark's own root spans ("bench.mine",
// "bench.batch", "bench.query"): time under a root that no layer span
// covers is time the trace does not explain.
const rootLayer = "bench"

// traceSummary is what the spans say about where time went.
type traceSummary struct {
	// self is each layer's self time: its spans' durations minus the
	// part of each interval that child spans cover.
	self map[string]time.Duration
	// coverage is the share of root-span time that layer spans cover.
	coverage float64
	spans    int
}

func (t *tracer) summarize() traceSummary {
	out := traceSummary{self: map[string]time.Duration{}}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var rootDur, rootCovered time.Duration
	for _, s := range t.spans {
		dur := s.end - s.start
		covered := unionWithin(children[s.ID], s.start, s.end)
		out.self[s.layer()] += dur - covered
		if s.Parent == 0 && s.layer() == rootLayer {
			rootDur += dur
			rootCovered += covered
		}
	}
	if rootDur > 0 {
		out.coverage = float64(rootCovered) / float64(rootDur)
	}
	out.spans = len(t.spans)
	return out
}

// unionWithin is the length of the union of the spans' intervals,
// clipped to [lo, hi].
func unionWithin(spans []span, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// spanCost measures what recording one span costs, for the tracing
// overhead estimate: spans recorded × cost / traced wall time.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	now := time.Now()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.add(0, "bench.calibrate", i, now, now)
	}
	return time.Since(start) / n
}

// writeJSON dumps every span for offline inspection.
func (t *tracer) writeJSON(path string) error {
	t.mu.Lock()
	spans := make([]span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()
	for i := range spans {
		spans[i].Start = float64(spans[i].start) / float64(time.Microsecond)
		spans[i].End = float64(spans[i].end) / float64(time.Microsecond)
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printSelfTable writes the per-layer self-time table, largest first.
func printSelfTable(w io.Writer, sum traceSummary) {
	type row struct {
		layer string
		self  time.Duration
	}
	var rows []row
	var total time.Duration
	for l, d := range sum.self {
		rows = append(rows, row{l, d})
		total += d
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	fmt.Fprintf(w, "# %-10s %12s %7s\n", "layer", "self_s", "share")
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = 100 * float64(r.self) / float64(total)
		}
		fmt.Fprintf(w, "# %-10s %12.4f %6.1f%%\n", r.layer, r.self.Seconds(), share)
	}
	fmt.Fprintf(w, "# spans=%d coverage=%.4f\n", sum.spans, sum.coverage)
}
