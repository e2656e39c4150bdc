package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"
)

// profile sizes every workload. fullProfile is the benchmark; the
// quick profile keeps the same shapes at a size the tests can afford.
type profile struct {
	mineScale   float64 // dataset scale of mine-paper (1 = the paper's 98,292 rows)
	structScale float64 // dataset scale of the Algorithm 1 store query-hot mounts
	streamScale float64 // dataset scale of the Figure 4 stream
	window      int     // sliding window, in batches
	batchTxns   int     // transactions per batch
	// batchRate is ingest-window's batches per second: a fold takes
	// 130–180 ms as the shared machine speeds up and slows down, so at
	// 5 a second the queue in front of it swung p90 freshness by half
	// from run to run; at 3 the fold pipeline stays half idle.
	batchRate   float64
	disorder    int     // the stream permutes each run of this many transactions
	warmBatches int     // batches streamed before measuring
	minSupport  int     // absolute support of the window mines
	queryRate   float64 // query-hot's fixed request rate
	warmQueries time.Duration
	setups      int // set-ups per run; setup_s is their median
	minMines    int // mine-paper mines at least this many times
	searchProbe time.Duration
	golden      bool // check mine-paper dumps against goldenDumps
}

var fullProfile = profile{
	mineScale: 1, structScale: 0.25, streamScale: 0.5,
	window: 120, batchTxns: 10, batchRate: 3, disorder: 100, warmBatches: 5, minSupport: 4,
	queryRate: 600, warmQueries: 2 * time.Second,
	setups: 3, minMines: 3, searchProbe: 2 * time.Second, golden: true,
}

var quickProfile = profile{
	mineScale: 0.005, structScale: 0.005, streamScale: 0.1,
	window: 12, batchTxns: 3, batchRate: 20, disorder: 9, warmBatches: 2, minSupport: 2,
	queryRate: 200, warmQueries: 200 * time.Millisecond,
	setups: 2, minMines: 1, searchProbe: 200 * time.Millisecond,
}

// config is one workload run.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	prof     profile
	// workDir holds the run's store files; it is removed afterwards.
	workDir string
}

// workloads maps each workload name to its runner, in report order.
var workloads = []struct {
	name string
	run  func(config) (*outcome, error)
}{
	{"mine-paper", runMinePaper},
	{"ingest-window", runIngestWindow},
	{"query-hot", runQueryHot},
}

// defaultSeed is dataset.DefaultConfig().Seed, the calibration seed.
const defaultSeed = 20050405

// runRecord is one run as the result file stores it.
type runRecord struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      bool     `json:"trace"`
	Quick      bool     `json:"quick,omitempty"`
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NProc      int      `json:"nproc"`
	Correct    bool     `json:"correct"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Gates      []string `json:"failed_gates,omitempty"`
	Metrics    metrics  `json:"metrics"`
}

// resultFile is the fixed result schema; -out appends runs to it.
type resultFile struct {
	Schema int         `json:"schema"`
	Runs   []runRecord `json:"runs"`
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		workload   = flag.String("workload", "", "mine-paper, ingest-window, query-hot, or all")
		seed       = flag.Int64("seed", defaultSeed, "input seed; the same seed gives the same inputs")
		seconds    = flag.Int("seconds", 30, "how long one run measures")
		traceFlag  = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		traceOut   = flag.String("trace-out", "", "write the recorded spans to this JSON file (with -trace 1)")
		out        = flag.String("out", "", "append the run to this result file")
		quick      = flag.Bool("quick", false, "tiny inputs, for smoke runs")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
		doCompare  = flag.Bool("compare", false, "compare result files: -compare base.json... -- new.json...")
		benchJSON  = flag.String("benchmark", "BENCHMARK.json", "BENCHMARK.json holding the regression bounds, for -compare")
		stores     = flag.String("stores", "", "mine query-hot's stores into this directory and exit (its set-up runs this in a child process)")
	)
	flag.Parse()
	if *doCompare {
		base, neu, err := splitCompareArgs(flag.Args())
		if err == nil {
			err = compareFiles(os.Stdout, *benchJSON, base, neu)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tndbench:", err)
			return 1
		}
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "tndbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "tndbench: -seconds must be at least 1")
		return 2
	}
	prof := fullProfile
	if *quick {
		prof = quickProfile
	}
	if *stores != "" {
		if err := mineQueryStores(prof, *seed, *stores); err != nil {
			fmt.Fprintln(os.Stderr, "tndbench:", err)
			return 1
		}
		return 0
	}
	if *workload == "all" {
		return runAll(*seed, *seconds, *traceFlag, *quick, *out)
	}
	run := findWorkload(*workload)
	if run == nil {
		fmt.Fprintf(os.Stderr, "tndbench: unknown -workload %q\n", *workload)
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tndbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tndbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *traceFlag == 1, prof: prof,
	}
	rec, o, err := runOne(run, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tndbench:", err)
		return 1
	}
	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			fmt.Fprintln(os.Stderr, "tndbench:", err)
			return 1
		}
	}
	if cfg.trace {
		printSelfTable(os.Stdout, o.tr.summarize())
		if *traceOut != "" {
			if err := o.tr.writeJSON(*traceOut); err != nil {
				fmt.Fprintln(os.Stderr, "tndbench:", err)
				return 1
			}
		}
	}
	if *out != "" {
		if err := appendResult(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "tndbench:", err)
			return 1
		}
	}
	for _, g := range rec.Gates {
		fmt.Fprintln(os.Stderr, "tndbench: correctness gate failed:", g)
	}
	printResult(os.Stdout, rec, reported(cfg.trace))
	if !rec.Correct {
		return 1
	}
	return 0
}

func findWorkload(name string) func(config) (*outcome, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.run
		}
	}
	return nil
}

// reported is the catalogue a run prints: end-to-end untraced,
// per-layer traced.
func reported(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// runOne runs one workload in a fresh work directory under
// .bench_build and turns its outcome into a result record.
func runOne(run func(config) (*outcome, error), cfg config) (runRecord, *outcome, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return runRecord{}, nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return runRecord{}, nil, err
	}
	defer os.RemoveAll(dir)
	if cfg.workDir, err = filepath.Abs(dir); err != nil {
		return runRecord{}, nil, err
	}
	o, err := run(cfg)
	if err != nil {
		return runRecord{}, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	o.m.set("peak_rss_mb", peakRSSMB(), 1)
	if cfg.trace {
		o.finishTrace()
	}
	rec := runRecord{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Trace: cfg.trace,
		Quick: cfg.prof != fullProfile, Commit: commit(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Attempted: o.attempted, Failed: o.failed, Gates: o.gates, Metrics: o.m,
	}
	for _, d := range reported(cfg.trace) {
		v, ok := o.m[d.Name]
		switch {
		case !ok && cfg.trace:
			o.m.set(d.Name, 0, 0) // a layer this workload does not exercise
		case !ok:
			rec.Gates = append(rec.Gates, "no value for "+d.Name)
		case !cfg.trace && !(v.Value > 0):
			rec.Gates = append(rec.Gates, fmt.Sprintf("%s is %v; end-to-end metrics are never 0", d.Name, v.Value))
		}
	}
	if rec.Attempted < 1 {
		rec.Gates = append(rec.Gates, "no operation was attempted")
	}
	rec.Correct = len(rec.Gates) == 0 && rec.Failed == 0
	return rec, o, nil
}

// printResult prints one "name value unit n=<samples>" line per
// reported metric, then the one-line JSON summary as the last line.
func printResult(w io.Writer, rec runRecord, defs []metricDef) {
	s := summary{rec.Correct, rec.Attempted, rec.Failed, map[string]summaryValue{}}
	for _, d := range defs {
		v := rec.Metrics[d.Name]
		fmt.Fprintf(w, "%s %s %s n=%d\n", d.Name, strconv.FormatFloat(v.Value, 'g', -1, 64), d.Unit, v.N)
		s.Metrics[d.Name] = summaryValue{v.Value, d.Unit}
	}
	s.print(w)
}

// summary is the JSON object a run prints as its last line.
type summary struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]summaryValue `json:"metrics"`
}

type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (s summary) print(w io.Writer) {
	line, _ := json.Marshal(s) // only finite floats and strings
	fmt.Fprintf(w, "%s\n", line)
}

func appendResult(path string, rec runRecord) error {
	rf := resultFile{Schema: 1}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &rf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	rf.Runs = append(rf.Runs, rec)
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) ([]runRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rf.Runs, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// commit is the VCS revision the binary was built from, with -dirty
// when the tree had uncommitted changes, or "unknown" when the Go
// toolchain stamped none (a checkout without its repository).
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
	}
	return rev + dirty
}

// runAll runs every workload in a fresh child process of this binary,
// so each reports its own peak_rss_mb, and appends every child's run
// to out.
func runAll(seed int64, seconds, trace int, quick bool, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tndbench:", err)
		return 1
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "tndbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(".bench_build", "all-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "tndbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	code := 0
	var recs []runRecord
	for _, w := range workloads {
		childOut := filepath.Join(tmp, w.name+".json")
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", childOut}
		if quick {
			args = append(args, "-quick")
		}
		fmt.Printf("## %s\n", w.name)
		cmd := exec.Command(exe, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "tndbench: %s: %v\n", w.name, err)
			code = 1
		}
		runs, err := readResults(childOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tndbench: %s: %v\n", w.name, err)
			code = 1
			continue
		}
		recs = append(recs, runs...)
	}
	for _, rec := range recs {
		if out != "" {
			if err := appendResult(out, rec); err != nil {
				fmt.Fprintln(os.Stderr, "tndbench:", err)
				code = 1
			}
		}
	}
	printAllSummary(os.Stdout, recs, reported(trace == 1))
	return code
}

// printAllSummary is the -workload all last line: the conjunction of
// the runs, with metrics keyed "<workload>/<metric>".
func printAllSummary(w io.Writer, recs []runRecord, defs []metricDef) {
	s := summary{Correct: len(recs) == len(workloads), Metrics: map[string]summaryValue{}}
	for _, rec := range recs {
		s.Correct = s.Correct && rec.Correct
		s.Attempted += rec.Attempted
		s.Failed += rec.Failed
		for _, d := range defs {
			s.Metrics[rec.Workload+"/"+d.Name] = summaryValue{rec.Metrics[d.Name].Value, d.Unit}
		}
	}
	s.print(w)
}

// splitCompareArgs splits "base... -- new..." into its two sides.
func splitCompareArgs(args []string) (base, neu []string, err error) {
	for i, a := range args {
		if a == "--" {
			base, neu = args[:i], args[i+1:]
			break
		}
	}
	if len(base) == 0 || len(neu) == 0 {
		return nil, nil, errors.New("usage: -compare base.json... -- new.json...")
	}
	return base, neu, nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
