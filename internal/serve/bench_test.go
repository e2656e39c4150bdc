package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"testing"

	"tnkd/internal/store"
)

// BenchmarkLocationsColdPersisted measures the cold /v1/locations
// path end to end: open the store, mount it, answer one location
// query from the index persisted in the footer.
func BenchmarkLocationsColdPersisted(b *testing.B) {
	fx := newMinedFixture(b)
	label := fx.txns[0].Vertex(0).Label
	target := "/v1/locations/" + url.PathEscape(label) + "/patterns"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := store.Open(fx.path)
		if err != nil {
			b.Fatal(err)
		}
		srv := New([]Mount{{Name: "mined", Reader: r}}, Options{Parallelism: 4})
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocationsWarm(b *testing.B) {
	fx := newMinedFixture(b)
	label := fx.txns[0].Vertex(0).Label
	target := "/v1/locations/" + url.PathEscape(label) + "/patterns"
	h := fx.srv.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			b.Fatal(rec.Code)
		}
	}
}

func benchCodes(b *testing.B, fx *minedFixture) []string {
	b.Helper()
	seen := map[string]bool{}
	var codes []string
	for i := range fx.result.Patterns {
		if c := fx.result.Patterns[i].Code; !seen[c] {
			seen[c] = true
			codes = append(codes, c)
		}
	}
	if len(codes) == 0 {
		b.Fatal("no codes mined")
	}
	return codes
}

// BenchmarkPatternPoint resolves one code per request; ns/op is cost
// per code over the point endpoint.
func BenchmarkPatternPoint(b *testing.B) {
	fx := newMinedFixture(b)
	codes := benchCodes(b, fx)
	h := fx.srv.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := "/v1/patterns/" + url.PathEscape(codes[i%len(codes)])
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			b.Fatal(rec.Code)
		}
	}
}

// BenchmarkPatternBatch resolves 32 codes per request; divide ns/op
// by codes/op for cost per code — the number the CI load gate holds
// at >= 2x the point endpoint's throughput.
func BenchmarkPatternBatch(b *testing.B) {
	fx := newMinedFixture(b)
	codes := benchCodes(b, fx)
	const batch = 32
	picked := make([]string, batch)
	for i := range picked {
		picked[i] = codes[i%len(codes)]
	}
	payload, err := json.Marshal(map[string]any{"codes": picked})
	if err != nil {
		b.Fatal(err)
	}
	h := fx.srv.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/patterns:batch", bytes.NewReader(payload))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.ReportMetric(batch, "codes/op")
}

// BenchmarkRemountSwap measures the full cutover latency — validate,
// flip, drain, close — on an idle server (the under-fire number
// comes from the load test). Stores must advance generations, so the
// chain is pre-built outside the timer.
func BenchmarkRemountSwap(b *testing.B) {
	dir := b.TempDir()
	paths := make([]string, b.N+1)
	for gen := 0; gen <= b.N; gen++ {
		paths[gen] = filepath.Join(dir, fmt.Sprintf("gen%d.tnd", gen))
		parent := ""
		if gen > 0 {
			parent = paths[gen-1]
		}
		writeGenStore(b, paths[gen], gen, parent)
	}
	r, err := store.Open(paths[0])
	if err != nil {
		b.Fatal(err)
	}
	srv := New([]Mount{{Name: "lineage", Reader: r}}, Options{})
	defer srv.Close() //nolint:errcheck
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Remount("lineage", paths[i+1]); err != nil {
			b.Fatal(err)
		}
	}
}
