package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
)

// metricDef is one catalogued metric. BENCHMARK.json lists the same
// names, units and directions; TestCatalogMatchesBenchmarkJSON keeps
// the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports each of them (see doc.go for what "operation" means per
// workload); they are measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// serveClasses are the query mix's request classes, in the order of
// the shared loadtest mix.
var serveClasses = []string{"point", "batch", "support", "locations", "stores"}

// perLayer are the metrics of single layers, reported by -trace 1
// runs. A layer a workload does not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"dataset.generate_s", "s", "lower"},
		{"dataset.build_graph_s", "s", "lower"},
		{"partition.split_s", "s", "lower"},
		{"partition.temporal_s", "s", "lower"},
		{"fsg.level1_s", "s", "lower"},
		{"fsg.level2_s", "s", "lower"},
		{"fsg.level3_s", "s", "lower"},
		{"fsg.level4_s", "s", "lower"},
		{"fsg.level5_s", "s", "lower"},
		{"fsg.candidates", "count", "lower"},
		{"fsg.frequent", "count", "higher"},
		{"fsg.embeddings", "count", "lower"},
		{"fsg.iso_tests", "count", "lower"},
		{"fsg.frequent_per_candidate", "ratio", "higher"},
		{"fsg.serial_mine_s", "s", "lower"},
		{"fsg.remine_s", "s", "lower"},
		{"engine.speedup", "x", "higher"},
		{"core.mine_structural_s", "s", "lower"},
		{"core.other_s", "s", "lower"},
		{"store.bytes", "bytes", "lower"},
		{"store.open_s", "s", "lower"},
		{"store.dump_s", "s", "lower"},
		{"store.decode_lite_us", "us", "lower"},
		{"store.decode_full_us", "us", "lower"},
		{"store.rehydrate_ms", "ms", "lower"},
		{"faultfs.write_ms", "ms", "lower"},
		{"faultfs.sync_ms", "ms", "lower"},
		{"faultfs.rename_ms", "ms", "lower"},
		{"faultfs.syncdir_ms", "ms", "lower"},
		{"faultfs.ops", "count", "lower"},
		{"ingest.tick_ms", "ms", "lower"},
		{"ingest.post_ms", "ms", "lower"},
		{"ingest.backlog_max", "count", "lower"},
		{"ingest.fold_over_remine", "ratio", "lower"},
		{"ingest.freshness_p50_ms", "ms", "lower"},
		{"ingest.freshness_tail_ms", "ms", "lower"},
		{"serve.remount_ms", "ms", "lower"},
		{"serve.drain_p99_ms", "ms", "lower"},
		{"serve.cache_hit_ratio", "ratio", "higher"},
	}
	for _, c := range serveClasses {
		defs = append(defs,
			metricDef{"serve." + c + ".service_p50_ms", "ms", "lower"},
			metricDef{"serve." + c + ".service_p99_ms", "ms", "lower"})
	}
	defs = append(defs,
		metricDef{"loadgen.latency_p99_ms", "ms", "lower"},
		metricDef{"loadgen.wait_p99_ms", "ms", "lower"},
		metricDef{"loadgen.late_max_ms", "ms", "lower"},
		metricDef{"loadgen.max_rps", "1/s", "higher"},
		metricDef{"runtime.alloc_mb", "MB", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"runtime.gc_pause_ms", "ms", "lower"},
		metricDef{"runtime.cpu_per_op_ms", "ms", "lower"},
		metricDef{"trace.coverage", "ratio", "higher"},
		metricDef{"trace.overhead_pct", "%", "lower"},
		metricDef{"trace.spans", "count", "higher"},
	)
	for _, l := range selfLayers {
		defs = append(defs, metricDef{l + ".self_s", "s", "lower"})
	}
	return defs
}()

// selfLayers are the layers whose span self time is reported. The
// partition draws run inside core.MineStructural, so their time is
// core's.
var selfLayers = []string{"dataset", "core", "fsg", "store", "faultfs", "ingest", "serve", "loadgen"}

var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.Name] = d.Unit
	}
	return m
}()

// metricValue is one reported number with its sample count.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

type metrics map[string]metricValue

// set records a catalogued metric; an unknown name is a programming
// error in the benchmark itself. A ratio over zero samples is
// recorded as 0, since JSON has no NaN.
func (m metrics) set(name string, v float64, n int) {
	unit, ok := unitOf[name]
	if !ok {
		panic("tndbench: uncatalogued metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metricValue{Value: v, Unit: unit, N: n}
}

// outcome is what one workload run produced.
type outcome struct {
	m         metrics
	attempted int
	failed    int
	// gates lists every correctness check that failed.
	gates []string
	tr    *tracer
	// live counts span records taken while the measured phase ran —
	// the tracing work an untraced run does not do.
	live     int
	measured time.Duration
}

func newOutcome(trace bool) *outcome {
	o := &outcome{m: metrics{}}
	if trace {
		o.tr = newTracer()
	}
	return o
}

// check records a failed correctness gate when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.gates = append(o.gates, fmt.Sprintf(format, args...))
	}
}

// phase brackets a measured phase for process CPU and runtime
// counters.
type phase struct {
	start time.Time
	cpu   time.Duration
	mem   runtime.MemStats
}

func beginPhase() phase {
	p := phase{start: time.Now(), cpu: cpuTime()}
	runtime.ReadMemStats(&p.mem)
	return p
}

// end records the runtime metrics of the phase and returns its CPU
// time.
func (p phase) end(o *outcome) time.Duration {
	cpu := cpuTime() - p.cpu
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	o.m.set("runtime.alloc_mb", float64(after.TotalAlloc-p.mem.TotalAlloc)/(1<<20), 1)
	o.m.set("runtime.gc_cycles", float64(after.NumGC-p.mem.NumGC), 1)
	o.m.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-p.mem.PauseTotalNs)/1e6, int(after.NumGC-p.mem.NumGC))
	o.measured += time.Since(p.start)
	return cpu
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// finishTrace derives the trace metrics and the per-layer self times.
func (o *outcome) finishTrace() traceSummary {
	sum := o.tr.summarize()
	for _, l := range selfLayers {
		o.m.set(l+".self_s", sum.self[l].Seconds(), sum.spans)
	}
	o.m.set("trace.coverage", sum.coverage, sum.spans)
	o.m.set("trace.spans", float64(sum.spans), sum.spans)
	overhead := 0.0
	if o.measured > 0 {
		overhead = 100 * float64(time.Duration(o.live)*spanCost()) / float64(o.measured)
	}
	o.m.set("trace.overhead_pct", overhead, o.live)
	return sum
}
