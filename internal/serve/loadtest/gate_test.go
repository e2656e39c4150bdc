package loadtest_test

import (
	"strings"
	"testing"

	"tnkd/internal/serve/loadtest"
)

// passingResult is a serve-load run that meets every Gate rule: batch
// resolves 4x the codes per second of point, point p99 is 12 ms.
func passingResult() loadtest.Result {
	return loadtest.Result{
		Requests: 100,
		Classes: []loadtest.ClassStats{
			{Class: "point", Requests: 40, Codes: 40, CodesPerSec: 400, P99Millis: 12},
			{Class: "batch", Requests: 20, Codes: 160, CodesPerSec: 1600, P99Millis: 30},
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
		{"batch exactly 2x point", func(r *loadtest.Result) { r.Classes[1].CodesPerSec = 800 }, ""},
		{"batch under 2x point", func(r *loadtest.Result) { r.Classes[1].CodesPerSec = 799.9 }, "codes/s of point"},
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
	r.Classes[1].CodesPerSec = 600
	r.Classes[0].P99Millis = 900
	if err := r.Consistent(); err != nil {
		t.Fatalf("Consistent = %v, want pass", err)
	}
	err := r.Gate()
	if err == nil || !strings.Contains(err.Error(), "codes/s of point") || !strings.Contains(err.Error(), "point p99") {
		t.Fatalf("Gate = %v, want both the speedup and the p99 rule broken", err)
	}
}
