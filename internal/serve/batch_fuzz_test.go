package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"tnkd/internal/obs"
)

// FuzzBatchBody sends arbitrary bytes as the body of POST
// /v1/patterns:batch against a small mined store. Whatever the body,
// the handler must not panic, must answer below 500, and must answer
// with valid JSON. The checked-in corpus under
// testdata/fuzz/FuzzBatchBody covers an unknown code, an empty and a
// null codes array, non-string codes, a truncated document and
// trailing garbage; the seeds added here are a batch of two of the
// store's own codes, one repeated, and a full batch of maxBatchCodes
// repeats of the longest code, the densest response per input byte.
//
// One request may allocate at most 1 MiB + 256 bytes per input byte:
// the checked-in corpus stays under 50 KB per request, and the
// full batch of the longest code allocates about 195 bytes per byte.
func FuzzBatchBody(f *testing.F) {
	fx := newMinedFixtureOpts(f, Options{Parallelism: 2, Metrics: obs.NewRegistry()})
	h := fx.srv.Handler()
	code := fx.result.Patterns[0].Code
	last := fx.result.Patterns[len(fx.result.Patterns)-1].Code
	seed, err := json.Marshal(map[string][]string{"codes": {code, last, code}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	longest := code
	for _, p := range fx.result.Patterns {
		if len(p.Code) > len(longest) {
			longest = p.Code
		}
	}
	full := make([]string, maxBatchCodes)
	for i := range full {
		full[i] = longest
	}
	seed, err = json.Marshal(map[string][]string{"codes": full})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/patterns:batch", bytes.NewReader(body))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+256*len(body)); alloc > bound {
			t.Fatalf("a %d-byte body allocated %d bytes (bound %d)", len(body), alloc, bound)
		}
		if rec.Code >= 500 {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d answered invalid JSON for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}
