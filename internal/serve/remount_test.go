package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tnkd/internal/graph"
	"tnkd/internal/iso"
	"tnkd/internal/obs"
	"tnkd/internal/pattern"
	"tnkd/internal/store"
)

// writeGenStore synthesizes one generation of a delta lineage: a
// single one-edge pattern whose support encodes the generation
// (100+gen), so a query response identifies exactly which store
// served it.
func writeGenStore(t testing.TB, path string, gen int, parent string) {
	t.Helper()
	txn := graph.New("t0")
	tv := txn.AddVertex("A")
	te := txn.AddEdge(tv, tv, "e")
	g := graph.New("pat")
	pv := g.AddVertex("A")
	g.AddEdge(pv, pv, "e")
	p := pattern.Pattern{
		Graph: g, Code: "genpat", Support: 100 + gen, TIDs: pattern.NewTIDSet(0),
		Embs: iso.EmbeddingList{NV: 1, NE: 1, IDs: []int32{int32(tv), int32(te)}}, Offsets: []int32{0, 1},
	}
	w, err := store.Create(path, store.Meta{Name: "lineage", Kind: "fsg", Generation: gen, Parent: parent})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTransactions([]*graph.Graph{txn}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteLevel(1, []pattern.Pattern{p}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func mountGen(t *testing.T, path string) (*Server, *httptest.Server) {
	t.Helper()
	r, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := New([]Mount{{Name: "lineage", Reader: r}}, Options{Parallelism: 2})
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestRemountUnderHammer is the zero-dropped-requests proof: many
// goroutines query continuously while the mount hot-swaps through
// two generations. Every response must be a 200 serving exactly one
// complete generation — never an error, never a torn state.
func TestRemountUnderHammer(t *testing.T) {
	dir := t.TempDir()
	paths := map[int]string{}
	for gen := 0; gen <= 2; gen++ {
		paths[gen] = filepath.Join(dir, fmt.Sprintf("gen%d.tnd", gen))
		parent := ""
		if gen > 0 {
			parent = paths[gen-1]
		}
		writeGenStore(t, paths[gen], gen, parent)
	}
	srv, ts := mountGen(t, paths[0])

	stop := make(chan struct{})
	var failures, torn atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := ts.Client()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(ts.URL + "/v1/patterns/genpat")
				if err != nil {
					failures.Add(1)
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close() //nolint:errcheck
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					continue
				}
				var out struct {
					Matches []struct {
						Support int `json:"support"`
					} `json:"matches"`
				}
				if err := json.Unmarshal(body, &out); err != nil || len(out.Matches) != 1 {
					torn.Add(1)
					continue
				}
				if s := out.Matches[0].Support; s != 100 && s != 101 && s != 102 {
					torn.Add(1)
				}
			}
		}()
	}

	time.Sleep(20 * time.Millisecond)
	res, err := srv.Remount("lineage", paths[1])
	if err != nil {
		t.Fatalf("remount gen1: %v", err)
	}
	if res.OldGeneration != 0 || res.NewGeneration != 1 {
		t.Fatalf("remount gen1 reported %d -> %d", res.OldGeneration, res.NewGeneration)
	}
	time.Sleep(20 * time.Millisecond)
	res, err = srv.RemountAuto(paths[2])
	if err != nil {
		t.Fatalf("remount gen2 (auto): %v", err)
	}
	if res.Store != "lineage" || res.NewGeneration != 2 {
		t.Fatalf("auto remount picked %q generation %d", res.Store, res.NewGeneration)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed across the remounts", n)
	}
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d responses showed a torn or unknown generation", n)
	}
	var stores []StoreJSON
	getJSON(t, ts, "/v1/stores", &stores)
	if len(stores) != 1 || stores[0].Generation != 2 {
		t.Fatalf("final mount table: %+v", stores)
	}
	if stores[0].Path != paths[2] {
		t.Fatalf("final mount path %q, want %q", stores[0].Path, paths[2])
	}
}

// TestRemountValidation pins the provenance contract and the admin
// endpoint's status mapping.
func TestRemountValidation(t *testing.T) {
	dir := t.TempDir()
	gen0 := filepath.Join(dir, "gen0.tnd")
	gen1 := filepath.Join(dir, "gen1.tnd")
	stale := filepath.Join(dir, "stale.tnd")
	alien := filepath.Join(dir, "alien.tnd")
	writeGenStore(t, gen0, 0, "")
	writeGenStore(t, gen1, 1, gen0)
	writeGenStore(t, stale, 0, gen0) // generation does not advance
	// Same shape, unrelated lineage: different name, no parent.
	aw, err := store.Create(alien, store.Meta{Name: "other", Kind: "fsg", Generation: 9})
	if err != nil {
		t.Fatal(err)
	}
	txn := graph.New("t0")
	txn.AddVertex("A")
	if err := aw.WriteTransactions([]*graph.Graph{txn}); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}

	srv, ts := mountGen(t, gen0)

	if _, err := srv.Remount("lineage", stale); !errors.Is(err, ErrProvenance) {
		t.Fatalf("same-generation remount: err = %v, want ErrProvenance", err)
	}
	if _, err := srv.Remount("lineage", alien); !errors.Is(err, ErrProvenance) {
		t.Fatalf("alien-lineage remount: err = %v, want ErrProvenance", err)
	}
	if _, err := srv.Remount("nope", gen1); !errors.Is(err, ErrNoSuchStore) {
		t.Fatalf("unknown-mount remount: err = %v, want ErrNoSuchStore", err)
	}
	if _, err := srv.RemountAuto(alien); !errors.Is(err, ErrProvenance) {
		t.Fatalf("alien auto remount: err = %v, want ErrProvenance", err)
	}

	// Admin endpoint status mapping.
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/admin/remount", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close() //nolint:errcheck
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, _ := post(`{`); code != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", code)
	}
	if code, _ := post(`{"store":"lineage"}`); code != http.StatusBadRequest {
		t.Fatalf("missing path: status %d", code)
	}
	if code, _ := post(`{"store":"lineage","path":"` + dir + `/does-not-exist.tnd"}`); code != http.StatusBadRequest {
		t.Fatalf("unopenable candidate: status %d", code)
	}
	if code, _ := post(`{"store":"nope","path":"` + gen1 + `"}`); code != http.StatusNotFound {
		t.Fatalf("unknown store: status %d", code)
	}
	if code, body := post(`{"store":"lineage","path":"` + stale + `"}`); code != http.StatusConflict {
		t.Fatalf("stale candidate: status %d: %s", code, body)
	}
	code, body := post(`{"store":"lineage","path":"` + gen1 + `"}`)
	if code != http.StatusOK {
		t.Fatalf("valid remount: status %d: %s", code, body)
	}
	var res RemountResult
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if res.OldGeneration != 0 || res.NewGeneration != 1 || res.Store != "lineage" {
		t.Fatalf("remount response: %+v", res)
	}
	var sup struct {
		Matches []SupportJSON `json:"matches"`
	}
	getJSON(t, ts, "/v1/patterns/genpat/support", &sup)
	if len(sup.Matches) != 1 || sup.Matches[0].Support != 101 {
		t.Fatalf("post-remount support: %+v", sup.Matches)
	}

	// An ingest generation names its parent by the daemon's own copy
	// (store/gen-000000.tnd), never the mounted path: it is accepted on
	// the same Kind/Name with an advancing generation, both by name and
	// by path alone.
	for i, remount := range []func(string) (RemountResult, error){
		func(p string) (RemountResult, error) { return srv.Remount("lineage", p) },
		srv.RemountAuto,
	} {
		gen := 2 + i
		ingested := filepath.Join(dir, fmt.Sprintf("ingested%d.tnd", gen))
		writeGenStore(t, ingested, gen, filepath.Join("data", "store", "gen-000000.tnd"))
		res, err := remount(ingested)
		if err != nil {
			t.Fatalf("ingest-lineage remount %d: %v", i, err)
		}
		if res.Store != "lineage" || res.OldGeneration != gen-1 || res.NewGeneration != gen {
			t.Fatalf("ingest-lineage remount %d: %+v", i, res)
		}
	}
	getJSON(t, ts, "/v1/patterns/genpat/support", &sup)
	if len(sup.Matches) != 1 || sup.Matches[0].Support != 103 {
		t.Fatalf("post-ingest-remount support: %+v", sup.Matches)
	}
}

// postBatch posts codes to /v1/patterns:batch and decodes the
// response.
func postBatch(t *testing.T, ts *httptest.Server, codes []string, wantStatus int) (found int, results []struct {
	Code    string        `json:"code"`
	Matches []PatternJSON `json:"matches"`
}) {
	t.Helper()
	payload, err := json.Marshal(map[string]any{"codes": codes})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/patterns:batch", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("batch: status %d (want %d): %s", resp.StatusCode, wantStatus, body)
	}
	if wantStatus != http.StatusOK {
		return 0, nil
	}
	var out struct {
		Codes   int             `json:"codes"`
		Found   int             `json:"found"`
		Results json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("batch: bad JSON: %v\n%s", err, body)
	}
	if err := json.Unmarshal(out.Results, &results); err != nil {
		t.Fatalf("batch: bad results: %v", err)
	}
	if out.Codes != len(codes) {
		t.Fatalf("batch echoed %d codes, want %d", out.Codes, len(codes))
	}
	return out.Found, results
}

// TestBatchMatchesPointQueries is the batch-endpoint equivalence
// check: one batch request must return, per code, exactly the
// matches of the point endpoint — same records, same bodies — with
// unknown codes answering empty instead of failing the whole batch.
func TestBatchMatchesPointQueries(t *testing.T) {
	fx := newMinedFixture(t)
	seen := map[string]bool{}
	var codes []string
	for i := range fx.result.Patterns {
		if c := fx.result.Patterns[i].Code; !seen[c] {
			seen[c] = true
			codes = append(codes, c)
		}
	}
	codes = append(codes, "no-such-code")

	// Warm the cache through the point endpoint so the batch is
	// served from it (hit accounting checked below).
	point := make(map[string][]PatternJSON, len(codes))
	for _, c := range codes[:len(codes)-1] {
		var out struct {
			Matches []PatternJSON `json:"matches"`
		}
		getJSON(t, fx.ts, "/v1/patterns/"+url.PathEscape(c), &out)
		point[c] = out.Matches
	}

	found, results := postBatch(t, fx.ts, codes, http.StatusOK)
	if found != len(codes)-1 {
		t.Fatalf("batch found %d codes, want %d", found, len(codes)-1)
	}
	if len(results) != len(codes) {
		t.Fatalf("batch returned %d results for %d codes", len(results), len(codes))
	}
	for i, r := range results {
		if r.Code != codes[i] {
			t.Fatalf("result %d is %q, want %q (order must follow the request)", i, r.Code, codes[i])
		}
		if r.Code == "no-such-code" {
			if len(r.Matches) != 0 {
				t.Fatalf("unknown code matched %d records", len(r.Matches))
			}
			continue
		}
		if !reflect.DeepEqual(r.Matches, point[r.Code]) {
			t.Fatalf("code %q: batch and point matches diverge:\nbatch: %+v\npoint: %+v",
				r.Code, r.Matches, point[r.Code])
		}
	}

	var stores []StoreJSON
	getJSON(t, fx.ts, "/v1/stores", &stores)
	if len(stores) != 1 || stores[0].Cache == nil {
		t.Fatalf("stores response missing cache stats: %+v", stores)
	}
	if stores[0].Cache.Hits < uint64(len(codes)-1) {
		t.Fatalf("cache hits = %d after a warmed batch of %d codes", stores[0].Cache.Hits, len(codes)-1)
	}
	if stores[0].Cache.UsedBytes <= 0 || stores[0].Cache.UsedBytes > stores[0].Cache.CapacityBytes {
		t.Fatalf("cache accounting out of bounds: %+v", *stores[0].Cache)
	}

	// Error contract.
	postBatch(t, fx.ts, nil, http.StatusBadRequest)
	huge := make([]string, maxBatchCodes+1)
	for i := range huge {
		huge[i] = fmt.Sprintf("c%d", i)
	}
	postBatch(t, fx.ts, huge, http.StatusBadRequest)
}

// TestRemountFailureLabels exercises each failure path and asserts
// the failure counter is labeled by mount and kind, so a fleet can
// tell which store is failing to swap and why.
func TestRemountFailureLabels(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "gen0.tnd")
	writeGenStore(t, base, 0, "")
	r, err := store.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv := New([]Mount{{Name: "lineage", Reader: r}}, Options{Metrics: reg})
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck

	// open: the candidate is not a store file.
	bad := filepath.Join(dir, "bad.tnd")
	if err := os.WriteFile(bad, []byte("not a store"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Remount("lineage", bad); err == nil {
		t.Fatal("remount of a non-store succeeded")
	}

	// lineage, named mount: stale generation.
	stale := filepath.Join(dir, "stale.tnd")
	writeGenStore(t, stale, 0, base)
	if _, err := srv.Remount("lineage", stale); !errors.Is(err, ErrProvenance) {
		t.Fatalf("stale remount err = %v, want ErrProvenance", err)
	}

	// lineage, no mount known: no such store name.
	gen1 := filepath.Join(dir, "gen1.tnd")
	writeGenStore(t, gen1, 1, base)
	if _, err := srv.Remount("nosuch", gen1); !errors.Is(err, ErrNoSuchStore) {
		t.Fatalf("remount of unknown mount err = %v, want ErrNoSuchStore", err)
	}

	// open failure through RemountAuto: before a mount is matched.
	if _, err := srv.RemountAuto(bad); err == nil {
		t.Fatal("auto remount of a non-store succeeded")
	}

	want := map[string]int64{
		`kind="open",mount="lineage"`:    1,
		`kind="lineage",mount="lineage"`: 1,
		`kind="lineage",mount="nosuch"`:  1,
		`kind="open",mount="unknown"`:    1,
	}
	got := map[string]int64{}
	for _, s := range reg.Snapshot() {
		if s.Name == "tnd_serve_remount_failures_total" {
			got[s.Labels] = s.Value
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("failure series = %v, want %v", got, want)
	}
}
