package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"tnkd/internal/fsg"
	"tnkd/internal/graph"
	"tnkd/internal/store"
	"tnkd/internal/synth"
)

// minedFixture mines a small transaction set, persists it through the
// fsg checkpoint path, and returns the in-memory result plus an
// httptest server over the store — the end-to-end flow the daemon
// serves in production.
type minedFixture struct {
	txns   []*graph.Graph
	result *fsg.Result
	ts     *httptest.Server
	path   string
	srv    *Server
}

func newMinedFixture(t testing.TB) *minedFixture {
	return newMinedFixtureOpts(t, Options{Parallelism: 4})
}

// newMinedFixtureOpts is newMinedFixture with caller-chosen server
// options (metrics registry isolation, cache sizing, loggers).
func newMinedFixtureOpts(t testing.TB, opts Options) *minedFixture {
	t.Helper()
	txns := synth.LabelStress(synth.LabelStressConfig{
		Seed: 11, NumTransactions: 18, Lanes: 30, LanesPerTxn: 20,
		Hubs: 3, VertexLabels: 6, EdgeLabels: 3,
	})
	path := filepath.Join(t.TempDir(), "mined.tnd")
	w, err := store.Create(path, store.Meta{Name: "stress", Kind: "fsg", MinSupport: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTransactions(txns); err != nil {
		t.Fatal(err)
	}
	res, err := fsg.Mine(txns, fsg.Options{
		MinSupport: 6, MaxEdges: 3,
		Checkpoint: func(lv fsg.LevelStats, pats []fsg.Pattern) error {
			return w.WriteLevel(lv.Edges, pats)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("fixture mined no patterns")
	}
	r, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	srv := New([]Mount{{Name: "mined", Reader: r}}, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &minedFixture{txns: txns, result: res, ts: ts, path: path, srv: srv}
}

// getJSON fetches a path and decodes the body into v, failing on
// non-200 unless wantStatus says otherwise.
func getJSON(t *testing.T, ts *httptest.Server, path string, v any, wantStatus ...int) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	want := http.StatusOK
	if len(wantStatus) > 0 {
		want = wantStatus[0]
	}
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		t.Fatalf("GET %s: status %d (want %d): %s", path, resp.StatusCode, want, body)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, body)
		}
	}
}

func codePath(code string) string { return url.PathEscape(code) }

// TestServeMatchesMiningExactly is the end-to-end acceptance check:
// every pattern the in-memory miner produced is answerable over HTTP
// with identical support, TID list and decoded occurrences.
func TestServeMatchesMiningExactly(t *testing.T) {
	fx := newMinedFixture(t)

	// Store directory reflects the run.
	var stores []StoreJSON
	getJSON(t, fx.ts, "/v1/stores", &stores)
	if len(stores) != 1 || stores[0].Patterns != len(fx.result.Patterns) ||
		stores[0].Transactions != len(fx.txns) {
		t.Fatalf("stores = %+v, want %d patterns over %d txns", stores, len(fx.result.Patterns), len(fx.txns))
	}

	// Level listing matches the per-level pattern counts.
	var levels []LevelJSON
	getJSON(t, fx.ts, "/v1/levels", &levels)
	byEdges := map[int]int{}
	for i := range fx.result.Patterns {
		byEdges[fx.result.Patterns[i].Graph.NumEdges()]++
	}
	if len(levels) != len(byEdges) {
		t.Fatalf("levels = %+v, want %v", levels, byEdges)
	}
	for _, lv := range levels {
		if byEdges[lv.Edges] != lv.Patterns {
			t.Fatalf("level %d reports %d patterns, mined %d", lv.Edges, lv.Patterns, byEdges[lv.Edges])
		}
	}

	for i := range fx.result.Patterns {
		want := &fx.result.Patterns[i]

		// Pattern lookup by code.
		var patResp struct {
			Matches []PatternJSON `json:"matches"`
		}
		getJSON(t, fx.ts, "/v1/patterns/"+codePath(want.Code), &patResp)
		if len(patResp.Matches) != 1 {
			t.Fatalf("pattern %q: %d matches, want 1", want.Code, len(patResp.Matches))
		}
		got := patResp.Matches[0]
		if got.Support != want.Support || !reflect.DeepEqual(got.TIDs, want.TIDs.Slice()) ||
			got.Edges != want.Graph.NumEdges() || len(got.Graph.Vertices) != want.Graph.NumVertices() {
			t.Fatalf("pattern %q: served %+v diverges from mined (support %d, tids %v)",
				want.Code, got, want.Support, want.TIDs)
		}

		// Support query.
		var supResp struct {
			MaxSupport int           `json:"max_support"`
			Matches    []SupportJSON `json:"matches"`
		}
		getJSON(t, fx.ts, "/v1/patterns/"+codePath(want.Code)+"/support", &supResp)
		if supResp.MaxSupport != want.Support || len(supResp.Matches) != 1 ||
			!reflect.DeepEqual(supResp.Matches[0].TIDs, want.TIDs.Slice()) {
			t.Fatalf("pattern %q: support response %+v diverges", want.Code, supResp)
		}

		// Occurrence query: decoded embeddings must be exactly the
		// stored ones, mapped through the stored transactions.
		var occResp struct {
			Matches []RecordOccurrencesJSON `json:"matches"`
		}
		getJSON(t, fx.ts, "/v1/patterns/"+codePath(want.Code)+"/occurrences", &occResp)
		if len(occResp.Matches) != 1 {
			t.Fatalf("pattern %q: %d occurrence matches", want.Code, len(occResp.Matches))
		}
		occ := occResp.Matches[0]
		if occ.Complete != want.HasEmbeddings() {
			t.Fatalf("pattern %q: complete=%v, want %v", want.Code, occ.Complete, want.HasEmbeddings())
		}
		if len(occ.Transactions) != want.TIDs.Len() {
			t.Fatalf("pattern %q: %d occurrence groups for %d TIDs", want.Code, len(occ.Transactions), want.TIDs.Len())
		}
		wantTIDs := want.TIDs.Slice()
		for j, txnOcc := range occ.Transactions {
			tid := wantTIDs[j]
			if txnOcc.TID != tid {
				t.Fatalf("pattern %q: group %d is TID %d, want %d", want.Code, j, txnOcc.TID, tid)
			}
			if want.Offsets == nil {
				continue
			}
			list := want.EmbsAt(j)
			if len(txnOcc.Occurrences) != list.Len() {
				t.Fatalf("pattern %q tid %d: %d occurrences, stored %d",
					want.Code, tid, len(txnOcc.Occurrences), list.Len())
			}
			txn := fx.txns[tid]
			for k, o := range txnOcc.Occurrences {
				emb := list.At(k)
				for pv, id := range emb.Verts {
					tv := graph.VertexID(id)
					if o.Vertices[pv].Vertex != int(tv) || o.Vertices[pv].Label != txn.Vertex(tv).Label {
						t.Fatalf("pattern %q tid %d occ %d: vertex %d decoded %+v, want %d(%s)",
							want.Code, tid, k, pv, o.Vertices[pv], tv, txn.Vertex(tv).Label)
					}
				}
				for pe, id := range emb.Edges {
					te := graph.EdgeID(id)
					if o.Edges[pe].Edge != int(te) || o.Edges[pe].Label != txn.Edge(te).Label {
						t.Fatalf("pattern %q tid %d occ %d: edge %d decoded %+v, want %d",
							want.Code, tid, k, pe, o.Edges[pe], te)
					}
				}
			}
		}
	}
}

// TestServeLocationQuery cross-checks the inverted location view
// against a direct scan of the in-memory mining result.
func TestServeLocationQuery(t *testing.T) {
	fx := newMinedFixture(t)
	// Pick the first vertex label of the first transaction.
	label := fx.txns[0].Vertex(0).Label

	var resp LocationJSON
	getJSON(t, fx.ts, "/v1/locations/"+url.PathEscape(label)+"/patterns", &resp)

	wantOcc := map[string]int{} // code -> occurrence count
	for i := range fx.result.Patterns {
		p := &fx.result.Patterns[i]
		if p.Offsets == nil {
			continue
		}
		count := 0
		for j, tid := range p.TIDs.All() {
			txn := fx.txns[tid]
			list := p.EmbsAt(j)
			for k := range list.Len() {
				for _, tv := range list.At(k).Verts {
					if txn.Vertex(graph.VertexID(tv)).Label == label {
						count++
						break
					}
				}
			}
		}
		if count > 0 {
			wantOcc[p.Code] = count
		}
	}
	if len(wantOcc) == 0 {
		t.Fatalf("label %q occurs in no mined pattern; fixture is vacuous", label)
	}
	gotOcc := map[string]int{}
	for _, lp := range resp.Patterns {
		gotOcc[lp.Code] = lp.Occurrences
	}
	if !reflect.DeepEqual(gotOcc, wantOcc) {
		t.Fatalf("location %q: served %v, want %v", label, gotOcc, wantOcc)
	}
	// Ordered by descending occurrence count.
	for i := 1; i < len(resp.Patterns); i++ {
		if resp.Patterns[i].Occurrences > resp.Patterns[i-1].Occurrences {
			t.Fatal("location patterns not sorted by occurrences")
		}
	}
}

// TestServeLocationIndexMemoized pins the inverted-index behaviour:
// repeated queries (same and different labels, concurrent cold
// start) return identical, correct responses — the index is built
// once per mount and reused, never rebuilt or invalidated.
func TestServeLocationIndexMemoized(t *testing.T) {
	fx := newMinedFixture(t)
	labels := map[string]bool{}
	for _, txn := range fx.txns {
		for v := range graph.VertexID(txn.NumVertices()) {
			labels[txn.Vertex(v).Label] = true
		}
	}

	// Concurrent cold start: every first query must see the same
	// fully built index (sync.Once), not a partial one.
	label0 := fx.txns[0].Vertex(0).Label
	const racers = 8
	cold := make([]LocationJSON, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(fx.ts.URL + "/v1/locations/" + url.PathEscape(label0) + "/patterns")
			if err != nil {
				return
			}
			defer resp.Body.Close()
			json.NewDecoder(resp.Body).Decode(&cold[i]) //nolint:errcheck
		}(i)
	}
	wg.Wait()
	for i := 1; i < racers; i++ {
		if !reflect.DeepEqual(cold[i], cold[0]) {
			t.Fatalf("concurrent cold-start responses diverge:\n%+v\n%+v", cold[0], cold[i])
		}
	}

	// Warm queries across every label: identical across repeats.
	for label := range labels {
		path := "/v1/locations/" + url.PathEscape(label) + "/patterns"
		var first, second LocationJSON
		getJSON(t, fx.ts, path, &first)
		getJSON(t, fx.ts, path, &second)
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("label %q: repeated query diverged", label)
		}
	}

	// An unknown label answers empty (not 404): the index knows the
	// label simply occurs nowhere.
	var empty LocationJSON
	getJSON(t, fx.ts, "/v1/locations/no-such-place/patterns", &empty)
	if len(empty.Patterns) != 0 {
		t.Fatalf("unknown label matched %d patterns", len(empty.Patterns))
	}
}

// TestServeErrors covers the failure contract: JSON errors with
// accurate statuses.
func TestServeErrors(t *testing.T) {
	fx := newMinedFixture(t)
	var e struct {
		Error string `json:"error"`
	}
	getJSON(t, fx.ts, "/v1/patterns/no-such-code", &e, http.StatusNotFound)
	if e.Error == "" {
		t.Fatal("404 without error body")
	}
	getJSON(t, fx.ts, "/v1/levels/zero", &e, http.StatusBadRequest)
	getJSON(t, fx.ts, "/v1/levels/-1", &e, http.StatusBadRequest)
	code := fx.result.Patterns[0].Code
	getJSON(t, fx.ts, "/v1/patterns/"+codePath(code)+"/occurrences?limit=x", &e, http.StatusBadRequest)
}

// TestServeConcurrentRequests hammers every endpoint from many
// goroutines — with -race this proves the reader/server are safe for
// the daemon's concurrent request handling.
func TestServeConcurrentRequests(t *testing.T) {
	fx := newMinedFixture(t)
	label := fx.txns[0].Vertex(0).Label
	paths := []string{
		"/healthz",
		"/v1/stores",
		"/v1/levels",
		"/v1/levels/1",
		"/v1/patterns/" + codePath(fx.result.Patterns[0].Code),
		"/v1/patterns/" + codePath(fx.result.Patterns[0].Code) + "/support",
		"/v1/patterns/" + codePath(fx.result.Patterns[0].Code) + "/occurrences",
		"/v1/locations/" + url.PathEscape(label) + "/patterns",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				path := paths[(w+i)%len(paths)]
				resp, err := http.Get(fx.ts.URL + path)
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("GET %s: %d", path, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestGracefulShutdown: cancelling the context stops ListenAndServe
// cleanly (nil error) after serving.
func TestGracefulShutdown(t *testing.T) {
	fx := newMinedFixture(t)
	// Reuse the fixture's reader through a fresh Server bound to a
	// real listener.
	var stores []StoreJSON
	getJSON(t, fx.ts, "/v1/stores", &stores)

	r, err := store.Open(stores[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	srv := New([]Mount{{Name: "g", Reader: r}}, Options{ShutdownGrace: time.Second})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(ctx, addr) }()

	// Wait until it serves, then cancel.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestWriteTimeoutClosesStalledConnection: ListenAndServe's server
// carries the fixed writeTimeout, and a handler that stalls past the
// write deadline gets its connection closed instead of delivering a
// late response.
func TestWriteTimeoutClosesStalledConnection(t *testing.T) {
	srv := New(nil, Options{}).httpServer("127.0.0.1:0")
	if srv.WriteTimeout != writeTimeout {
		t.Fatalf("WriteTimeout = %v, want %v", srv.WriteTimeout, writeTimeout)
	}
	// Shrink the bound so a stall past it fits in a unit test.
	srv.WriteTimeout = 50 * time.Millisecond
	srv.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(4 * srv.WriteTimeout)
		w.Write([]byte("late")) //nolint:errcheck
	})
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Close()

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + ln.Addr().String() + "/")
	if err == nil {
		resp.Body.Close()
		t.Fatalf("stalled handler delivered a response (status %d)", resp.StatusCode)
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("client timed out instead of seeing the connection closed: %v", err)
	}
}
