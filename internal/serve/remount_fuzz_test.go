package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"tnkd/internal/obs"
)

// FuzzRemountBody sends arbitrary bytes as the body of POST
// /v1/admin/remount against a small mined store. Whatever the body,
// the handler must not panic, must answer below 500 with valid JSON,
// and must leave the mount serving: a known code still answers 200
// from the same store file. The checked-in corpus under
// testdata/fuzz/FuzzRemountBody covers an empty body, an empty
// object, a missing path, a nonexistent path, an unknown store name
// and trailing garbage; the seeds added here name the mounted file
// itself (a stale generation) with no mount name, its own mount name
// and an unknown one, so the lineage and no-such-store branches run,
// plus a 20 KB path and a 20 KB mount name.
//
// One request may allocate at most 1 MiB + 64 bytes per input byte:
// a request that opens the mounted file allocates about 400 KB
// whatever its size, and the long path and name add about 16 bytes
// per byte.
func FuzzRemountBody(f *testing.F) {
	fx := newMinedFixtureOpts(f, Options{Parallelism: 2, Metrics: obs.NewRegistry()})
	h := fx.srv.Handler()
	support := "/v1/patterns/" + codePath(fx.result.Patterns[0].Code) + "/support"
	for _, body := range []map[string]string{
		{"path": fx.path},
		{"store": "mined", "path": fx.path},
		{"store": "other", "path": fx.path},
		{"path": strings.Repeat("a/", 10000)},
		{"store": strings.Repeat("a", 20000), "path": fx.path},
	} {
		seed, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/admin/remount", bytes.NewReader(body))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*len(body)); alloc > bound {
			t.Fatalf("a %d-byte body allocated %d bytes (bound %d)", len(body), alloc, bound)
		}
		if rec.Code >= 500 {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d answered invalid JSON for body %q: %s", rec.Code, body, rec.Body)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, support, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("after remount body %q the known code answered %d: %s", body, rec.Code, rec.Body)
		}
		var stores []StoreJSON
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stores", nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &stores); err != nil {
			t.Fatal(err)
		}
		if len(stores) != 1 || stores[0].Path != fx.path || stores[0].Generation != 0 {
			t.Fatalf("after remount body %q the mount changed: %+v", body, stores)
		}
	})
}
