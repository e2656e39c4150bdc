package main

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"tnkd/internal/graph"
	"tnkd/internal/ingest"
	"tnkd/internal/iso"
	"tnkd/internal/pattern"
	"tnkd/internal/serve"
	"tnkd/internal/store"
)

// writeGenStore writes one generation of a one-pattern lineage whose
// Meta.Parent names parent, the shape tndingest publishes.
func writeGenStore(t *testing.T, path string, gen int, parent string) {
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

// TestHTTPRemount drives the out-of-process handoff against a real
// admin endpoint: a fresh generation swaps in (200 → nil), a repeat
// push maps the 409 to ErrRemountStale so the daemon counts it as
// delivered, and an unopenable path is a plain error (400) that the
// daemon keeps retrying.
func TestHTTPRemount(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	gen0 := filepath.Join(dir, "gen0.tnd")
	writeGenStore(t, gen0, 0, "")
	writeGenStore(t, filepath.Join(dir, "gen1.tnd"), 1, gen0)

	rd, err := store.Open(gen0)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New([]serve.Mount{{Name: "lineage", Reader: rd}}, serve.Options{})
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	push := httpRemount(ts.URL + "/v1/admin/remount")

	if err := push("gen1.tnd"); err != nil {
		t.Fatalf("push gen1: %v", err)
	}
	resp, err := http.Get(ts.URL + "/v1/stores")
	if err != nil {
		t.Fatal(err)
	}
	var stores []serve.StoreJSON
	err = json.NewDecoder(resp.Body).Decode(&stores)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, "gen1.tnd")
	if len(stores) != 1 || stores[0].Generation != 1 || stores[0].Path != want {
		t.Fatalf("/v1/stores after push = %+v, want generation 1 at %s", stores, want)
	}

	if err := push("gen1.tnd"); !errors.Is(err, ingest.ErrRemountStale) {
		t.Fatalf("repeat push: err = %v, want ErrRemountStale", err)
	}
	err = push("missing.tnd")
	if err == nil || errors.Is(err, ingest.ErrRemountStale) {
		t.Fatalf("push of a missing file: err = %v, want a retryable non-stale error", err)
	}
}

// TestWriteTimeoutClosesStalledConnection: the daemon's server
// carries the fixed writeTimeout, and a handler that stalls past the
// write deadline gets its connection closed instead of delivering a
// late response.
func TestWriteTimeoutClosesStalledConnection(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", nil)
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
