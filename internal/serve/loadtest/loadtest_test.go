package loadtest_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"tnkd/internal/graph"
	"tnkd/internal/iso"
	"tnkd/internal/pattern"
	"tnkd/internal/serve"
	"tnkd/internal/serve/loadtest"
	"tnkd/internal/store"
)

// writeGenStore synthesizes one generation of a lineage with several
// distinct one-edge patterns, enough of a code population for the
// mixed workload (batches need more than one code to beat point
// queries).
func writeGenStore(t *testing.T, path string, gen int, parent string) {
	t.Helper()
	txn := graph.New("t0")
	tv := txn.AddVertex("A")
	te := txn.AddEdge(tv, tv, "e")
	var pats []pattern.Pattern
	for i := 0; i < 8; i++ {
		g := graph.New(fmt.Sprintf("pat%d", i))
		pv := g.AddVertex("A")
		g.AddEdge(pv, pv, "e")
		pats = append(pats, pattern.Pattern{
			Graph: g, Code: fmt.Sprintf("pat%d", i), Support: 1, TIDs: pattern.NewTIDSet(0),
			Embs: iso.EmbeddingList{NV: 1, NE: 1, IDs: []int32{int32(tv), int32(te)}}, Offsets: []int32{0, 1},
		})
	}
	w, err := store.Create(path, store.Meta{Name: "load", Kind: "fsg", Generation: gen, Parent: parent})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTransactions([]*graph.Graph{txn}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteLevel(1, pats); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadUnderRemount runs the CI load scenario in-process: the
// generator hammers a server that hot-swaps to a new generation
// mid-run. The gates are the job's gates: zero failed requests, and
// batch resolution beating point queries on codes per second.
func TestLoadUnderRemount(t *testing.T) {
	dir := t.TempDir()
	gen0 := filepath.Join(dir, "gen0.tnd")
	gen1 := filepath.Join(dir, "gen1.tnd")
	writeGenStore(t, gen0, 0, "")
	writeGenStore(t, gen1, 1, gen0)

	r, err := store.Open(gen0)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New([]serve.Mount{{Name: "load", Reader: r}}, serve.Options{Parallelism: 2})
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	ctx := context.Background()
	codes, labels, err := loadtest.Discover(ctx, ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(codes) != 8 {
		t.Fatalf("discovered %d codes, want 8", len(codes))
	}
	if len(labels) != 1 || labels[0] != "A" {
		t.Fatalf("discovered labels %v, want [A]", labels)
	}

	const duration = 600 * time.Millisecond
	swapped := make(chan error, 1)
	go func() {
		time.Sleep(duration / 3)
		_, err := srv.RemountAuto(gen1)
		swapped <- err
	}()
	res, err := loadtest.Run(ctx, loadtest.Options{
		BaseURL:  ts.URL,
		Workers:  4,
		Duration: duration,
		// Batch size 4 over 8 codes: each batch request resolves 4x
		// a point request's work.
		BatchSize: 4,
		Codes:     codes,
		Labels:    labels,
		Client:    ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-swapped; err != nil {
		t.Fatalf("remount under load: %v", err)
	}

	if res.Failures != 0 {
		t.Fatalf("%d of %d requests failed across the remount", res.Failures, res.Requests)
	}
	// The server's own /metrics counters must agree exactly with the
	// client tallies: every request the client sent arrived, none was
	// double-counted, and the server returned no 5xx.
	if res.Server == nil {
		t.Fatal("server cross-check missing — /metrics not scraped")
	}
	if !res.Server.Match {
		t.Fatalf("client/server cross-check failed: %s (server %+v, client %d requests)",
			res.Server.Detail, res.Server, res.Requests)
	}
	if res.Server.RequestsDelta != int64(res.Requests) {
		t.Fatalf("server requests delta %d != client %d", res.Server.RequestsDelta, res.Requests)
	}
	point, batch := res.Class("point"), res.Class("batch")
	if point.Requests == 0 || batch.Requests == 0 {
		t.Fatalf("workload did not exercise both point (%d) and batch (%d)", point.Requests, batch.Requests)
	}
	if batch.CodesPerSec <= point.CodesPerSec {
		t.Fatalf("batch resolved %.0f codes/s, point %.0f codes/s — batching buys nothing",
			batch.CodesPerSec, point.CodesPerSec)
	}
	if res.Class("stores").Requests == 0 || res.Class("support").Requests == 0 {
		t.Fatal("mixed workload skipped a class")
	}
	if res.Class("locations").Requests == 0 {
		t.Fatal("locations class skipped despite discovered labels")
	}

	// The swap really happened and really served: generation 1 is
	// mounted, and a fresh run still answers every code.
	var stores []serve.StoreJSON
	if err := getJSON(t, ts, "/v1/stores", &stores); err != nil {
		t.Fatal(err)
	}
	if len(stores) != 1 || stores[0].Generation != 1 {
		t.Fatalf("post-load mount table: %+v", stores)
	}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) error {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != 200 {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
