package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"tnkd/internal/obs"
)

// FuzzBatchBody sends arbitrary bytes as the body of POST
// /v1/patterns:batch against a small mined store. Whatever the body,
// the handler must not panic, must answer below 500, and must answer
// with valid JSON. The checked-in corpus under
// testdata/fuzz/FuzzBatchBody covers an unknown code, an empty and a
// null codes array, non-string codes, a truncated document and
// trailing garbage; the seed added here is a batch of two of the
// store's own codes, one repeated.
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
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/patterns:batch", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d answered invalid JSON for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}
