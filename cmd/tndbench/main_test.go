package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"tnkd/internal/faultfs"
)

// TestMain lets the test binary stand in for tndbench when query-hot's
// set-up runs it as a child process to mine the stores.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-stores" {
		os.Exit(mainErr())
	}
	os.Exit(m.Run())
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 1}, {99, 1}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {12000, 0.99}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	// p90 of 1..100 leaves exactly ten samples (91..100) beyond it.
	if got := tail(xs); got != 90 {
		t.Errorf("tail(1..100) = %v, want 90", got)
	}
	if got := tail(xs[:50]); got != 100 {
		t.Errorf("tail of 50 samples = %v, want their maximum 100", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

// TestOpenLoopChargesStall: a server that stalls once must show up in
// the latency of every request due during the stall, not only in the
// one it held.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	var seen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) == 5 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	lg := newOpenLoop(srv.URL, 1)
	defer lg.close()
	pool := []request{{class: 0, method: http.MethodGet, path: "/"}}
	shots := lg.run(pool, 0, 100, time.Second)
	if len(shots) != 100 || seen.Load() != 100 {
		t.Fatalf("sent %d requests, server saw %d, want 100 each", len(shots), seen.Load())
	}
	stalled := shots[4]
	if d := stalled.done.Sub(stalled.sent); d < stall {
		t.Fatalf("stalled request took %v, want at least %v", d, stall)
	}
	charged := 0
	for _, s := range shots[5:] {
		if s.status != http.StatusOK || s.err != nil {
			t.Fatalf("request failed: %d %v", s.status, s.err)
		}
		if s.due.Before(stalled.done) {
			// Due during the stall: it queued behind the stalled request
			// and is charged from when it was due.
			if s.sent.Before(stalled.done) {
				t.Errorf("request due %v into the stall was sent before the stall ended", s.due.Sub(stalled.sent))
			}
			if lat := s.done.Sub(s.due); lat < stalled.done.Sub(s.due) {
				t.Errorf("latency %v does not include the %v it waited", lat, stalled.done.Sub(s.due))
			}
			charged++
		}
	}
	if charged < 15 {
		t.Errorf("%d requests were due during a %v stall at 100/s, want about 20", charged, stall)
	}
	if shots[len(shots)-1].late < 0 {
		t.Errorf("the generator should have caught up and slept before the last request")
	}
}

func TestTimingFSPassesThroughAndCounts(t *testing.T) {
	dir := t.TempDir()
	tfs := newTimingFS(faultfs.OS{})
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	f, err := tfs.Create(a)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err = f.Write([]byte("hello"))
	mustWrite(err)
	_, err = f.WriteAt([]byte("J"), 0)
	mustWrite(err)
	mustWrite(f.Sync())
	mustWrite(f.Close())
	mustWrite(tfs.Rename(a, b))
	mustWrite(tfs.SyncDir(dir))
	g, err := tfs.Append(b)
	mustWrite(err)
	_, err = g.Write([]byte("!"))
	mustWrite(err)
	mustWrite(g.Close())
	if data, _ := os.ReadFile(b); string(data) != "Jello!" {
		t.Fatalf("file holds %q, want %q", data, "Jello!")
	}
	mustWrite(tfs.Truncate(b, 3))
	if data, _ := os.ReadFile(b); string(data) != "Jel" {
		t.Fatalf("after truncate the file holds %q", data)
	}
	if err := tfs.Rename(a, b); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("renaming a missing file: %v, want ErrNotExist passed through", err)
	}
	mustWrite(tfs.Remove(b))

	var names []string
	for _, op := range tfs.take() {
		names = append(names, op.op)
		if op.end.Before(op.start) {
			t.Errorf("%s ends before it starts", op.op)
		}
	}
	want := []string{"create", "write", "write", "sync", "close", "rename", "syncdir",
		"append", "write", "close", "truncate", "rename", "remove"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("recorded ops %v, want %v", names, want)
	}
	if rest := tfs.take(); len(rest) != 0 {
		t.Errorf("second take returned %d ops, want 0", len(rest))
	}
}

func TestJudge(t *testing.T) {
	base := paired{base: []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}}
	faster := base
	faster.cand = []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	for i := range faster.cand {
		faster.pairs = append(faster.pairs, [2]float64{base.base[i], faster.cand[i]})
	}
	if v := judge(faster, false, 0.1); v.label != "gain" {
		t.Errorf("20%% faster on every pair: %s, want gain", v.label)
	}
	if v := judge(faster, true, 0.1); v.label != "regressed" {
		t.Errorf("20%% lower where higher is better: %s, want regressed", v.label)
	}
	same := base
	same.cand = []float64{101, 100, 99, 100, 103, 98, 100, 102, 99, 100}
	if v := judge(same, false, 0.1); v.label != "ok" {
		t.Errorf("unchanged: %s, want ok", v.label)
	}
	noisy := paired{base: []float64{50, 150, 60, 140, 100, 70, 130, 90, 110, 80}, cand: []float64{120}}
	if v := judge(noisy, false, 0.1); v.label != "unresolved" {
		t.Errorf("base spread past the bound: %s, want unresolved", v.label)
	}
}

// TestQuickSmoke runs every workload on tiny inputs, untraced and
// traced, and requires every correctness gate to pass.
func TestQuickSmoke(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				cfg := config{workload: w.name, seed: 7, seconds: 500 * time.Millisecond, trace: trace, prof: quickProfile}
				rec, _, err := runOne(w.run, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || rec.Failed != 0 {
					t.Fatalf("correct=%v failed=%d gates=%v", rec.Correct, rec.Failed, rec.Gates)
				}
				for _, d := range reported(trace) {
					if _, ok := rec.Metrics[d.Name]; !ok {
						t.Errorf("no %s", d.Name)
					}
				}
				if trace && rec.Metrics["trace.coverage"].Value < 0.9 {
					t.Errorf("trace coverage %v, want at least 0.9", rec.Metrics["trace.coverage"].Value)
				}
			})
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// catalogue in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []boundedMetric `json:"end_to_end"`
		PerLayer []metricDef     `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"cmd/tndbench"}) {
		t.Errorf("BENCHMARK.json paths %v, want [cmd/tndbench]", spec.Paths)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	var e2e []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, want %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the catalogue:\n%v\nwant\n%v", spec.PerLayer, perLayer)
	}
}
