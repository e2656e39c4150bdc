package loadtest_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tnkd/internal/serve/loadtest"
)

// passingResult is a serve-load run that meets every Gate rule: batch
// resolves 4x the codes per busy second of point, point p99 is 12 ms.
func passingResult() loadtest.Result {
	return loadtest.Result{
		Requests: 100,
		Classes: []loadtest.ClassStats{
			{Class: "point", Requests: 40, Codes: 40, CodesPerSec: 400, BusySec: 0.4, CodesPerBusySec: 100, P99Millis: 12},
			{Class: "batch", Requests: 20, Codes: 160, CodesPerSec: 1600, BusySec: 0.4, CodesPerBusySec: 400, P99Millis: 30},
			{Class: "stores", Requests: 40},
		},
		Server: &loadtest.ServerCheck{RequestsDelta: 100, Match: true},
	}
}

// TestGateRules: each case breaks (or just meets) one rule of a
// passing run.
func TestGateRules(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*loadtest.Result)
		want string // substring of Gate's error; "" = passes
	}{
		{"passing run", func(*loadtest.Result) {}, ""},
		{"a failed request", func(r *loadtest.Result) { r.Failures = 1 }, "1 of 100 requests failed"},
		{"no requests", func(r *loadtest.Result) { r.Requests, r.Server.RequestsDelta = 0, 0 }, "run sent 0 requests"},
		{"no point requests", func(r *loadtest.Result) { r.Classes[0].Requests = 0 }, "0 point"},
		{"no batch requests", func(r *loadtest.Result) { r.Classes[1].Requests = 0 }, "0 batch"},
		{"no server cross-check", func(r *loadtest.Result) { r.Server = nil }, "no server cross-check"},
		{"cross-check mismatch", func(r *loadtest.Result) { r.Server.Match, r.Server.Detail = false, "class point: off by one" }, "class point: off by one"},
		{"server counted a 5xx", func(r *loadtest.Result) { r.Server.FailedDelta = 1 }, "1 failed (5xx)"},
		{"server missed a request", func(r *loadtest.Result) { r.Server.RequestsDelta = 99 }, "server saw 99 requests, client sent 100"},
		{"batch exactly 2x point", func(r *loadtest.Result) { r.Classes[1].CodesPerBusySec = 200 }, ""},
		{"batch under 2x point", func(r *loadtest.Result) { r.Classes[1].CodesPerBusySec = 199.9 }, "codes per busy second of point"},
		{"batch under 2x point per busy second, 4x per second of the run", func(r *loadtest.Result) {
			r.Classes[1].CodesPerBusySec = 100
		}, "batch resolved 1.00x the codes per busy second of point"},
		{"point p99 just under the ceiling", func(r *loadtest.Result) { r.Classes[0].P99Millis = 499.99 }, ""},
		{"point p99 at the ceiling", func(r *loadtest.Result) { r.Classes[0].P99Millis = 500 }, "point p99 500.00 ms"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := passingResult()
			tc.edit(&r)
			err := r.Gate()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("Gate = %v, want pass", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("Gate = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestConsistentIgnoresSpeed: Consistent holds at any load shape, so a
// slow run with a small batch speedup passes it and fails only Gate.
func TestConsistentIgnoresSpeed(t *testing.T) {
	r := passingResult()
	r.Classes[1].CodesPerBusySec = 150
	r.Classes[0].P99Millis = 900
	if err := r.Consistent(); err != nil {
		t.Fatalf("Consistent = %v, want pass", err)
	}
	err := r.Gate()
	if err == nil || !strings.Contains(err.Error(), "codes per busy second of point") || !strings.Contains(err.Error(), "point p99") {
		t.Fatalf("Gate = %v, want both the speedup and the p99 rule broken", err)
	}
}

// TestGateBatchingSavesNothing runs the load generator against a
// server that spends the same 2 ms on every code, whether it comes
// alone or in a batch: batching saves nothing, so the speedup rule
// must fail. Codes per second of the whole run could not tell — the
// fixed schedule issues a batch of 8 for every two point requests, so
// that ratio reads 4x here whatever the latencies.
func TestGateBatchingSavesNothing(t *testing.T) {
	const perCode = 2 * time.Millisecond
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/patterns/{code}", func(http.ResponseWriter, *http.Request) {
		time.Sleep(perCode)
	})
	mux.HandleFunc("POST /v1/patterns:batch", func(w http.ResponseWriter, r *http.Request) {
		var body struct{ Codes []string }
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		time.Sleep(time.Duration(len(body.Codes)) * perCode)
	})
	mux.HandleFunc("GET /v1/patterns/{code}/support", func(http.ResponseWriter, *http.Request) {})
	mux.HandleFunc("GET /v1/stores", func(http.ResponseWriter, *http.Request) {})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	codes := make([]string, 8)
	for i := range codes {
		codes[i] = fmt.Sprintf("c%d", i)
	}
	res, err := loadtest.Run(context.Background(), loadtest.Options{
		BaseURL: ts.URL, Workers: 2, Duration: 400 * time.Millisecond,
		BatchSize: 8, Codes: codes, Client: ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	point, batch := res.Class("point"), res.Class("batch")
	if point.Failures+batch.Failures != 0 || point.Requests == 0 || batch.Requests == 0 {
		t.Fatalf("run: %d point and %d batch requests, %d failed", point.Requests, batch.Requests, res.Failures)
	}
	if r := batch.CodesPerSec / point.CodesPerSec; r < 2 {
		t.Fatalf("codes per second of the run: batch/point = %.2f, want the schedule's 4x", r)
	}
	if r := res.BatchSpeedup(); r >= 2 {
		t.Fatalf("batch/point codes per busy second = %.2f, want about 1", r)
	}
	if err := res.Gate(); err == nil || !strings.Contains(err.Error(), "codes per busy second of point") {
		t.Fatalf("Gate = %v, want the batch speedup rule broken", err)
	}
}
