package main

import (
	"strings"
	"testing"
)

// realOutput is `go test -bench` output of the two gated runs, as CI
// pipes it in; {P} stands for the -GOMAXPROCS name suffix. Every value
// is within its limit.
const realOutput = `goos: linux
goarch: amd64
pkg: tnkd
cpu: Intel(R) Xeon(R) Processor
BenchmarkStructuralPipelineSerial{P}   	       3	 645102722 ns/op	       722.0 patterns
BenchmarkStructuralPipelineParallel{P} 	       3	 590720704 ns/op	       722.0 patterns
PASS
ok  	tnkd	5.947s
goos: linux
goarch: amd64
pkg: tnkd/internal/iso
cpu: Intel(R) Xeon(R) Processor
BenchmarkCode/star20{P}         	     200	     30526 ns/op	     768 B/op	       6 allocs/op
BenchmarkCode/star60{P}         	     200	    202616 ns/op	   13504 B/op	      74 allocs/op
BenchmarkCode/bipartite44{P}    	     200	      5293 ns/op	     192 B/op	       2 allocs/op
BenchmarkCode/pattern6{P}       	     200	       984.0 ns/op	     128 B/op	       2 allocs/op
BenchmarkCode/cycle12{P}        	     200	      7893 ns/op	     208 B/op	       3 allocs/op
PASS
ok  	tnkd/internal/iso	0.081s
`

// fixture is realOutput at GOMAXPROCS procs after the old/new edit
// pairs (applied before the {P} suffix is filled in).
func fixture(procs int, edits ...string) string {
	out := strings.NewReplacer(edits...).Replace(realOutput)
	suffix := ""
	if procs != 1 {
		suffix = "-" + string(rune('0'+procs))
	}
	return strings.ReplaceAll(out, "{P}", suffix)
}

func TestGate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		input string
		fail  string // the FAIL line's start; "" = every check passes
	}{
		{"real output, GOMAXPROCS 1", fixture(1), ""},
		{"real output, GOMAXPROCS 4", fixture(4), ""},

		// Canonical labeller shapes: at most 1.5x their baselines.
		{"star20 at 1.5x", fixture(1, "30526 ns/op", "41133 ns/op"), ""},
		{"star20 over 1.5x", fixture(1, "30526 ns/op", "41134 ns/op"), "BenchmarkCode/star20 41134"},
		{"star60 at 1.5x", fixture(4, "202616 ns/op", "233563 ns/op"), ""},
		{"star60 over 1.5x", fixture(4, "202616 ns/op", "233564 ns/op"), "BenchmarkCode/star60 233564"},
		{"bipartite44 at 1.5x", fixture(1, "5293 ns/op", "6190 ns/op"), ""},
		{"bipartite44 over 1.5x", fixture(1, "5293 ns/op", "6191 ns/op"), "BenchmarkCode/bipartite44 6191"},
		{"ungated shape is ignored", fixture(1, "7893 ns/op", "7893000 ns/op"), ""},

		// Serial pipeline: at most 2x its baseline, exactly 722 patterns.
		{"serial at 2x", fixture(4, "645102722 ns/op", "3740231594 ns/op"), ""},
		{"serial over 2x", fixture(4, "645102722 ns/op", "3740231595 ns/op"),
			"BenchmarkStructuralPipelineSerial 3740231595"},
		{"serial lost a pattern", fixture(1, "645102722 ns/op	       722.0", "645102722 ns/op	       721.0"),
			"BenchmarkStructuralPipelineSerial mined 721 patterns"},
		{"serial gained a pattern", fixture(1, "645102722 ns/op	       722.0", "645102722 ns/op	       723.0"),
			"BenchmarkStructuralPipelineSerial mined 723 patterns"},
		{"serial without a pattern count", fixture(1, "645102722 ns/op	       722.0 patterns", "645102722 ns/op"),
			"BenchmarkStructuralPipelineSerial mined 0 patterns"},

		// Parallel/serial: 1.15 without a name suffix, 1.0 with one.
		{"parallel 1.15x serial at GOMAXPROCS 1", fixture(1, "590720704", "741868130"), ""},
		{"parallel over 1.15x serial at GOMAXPROCS 1", fixture(1, "590720704", "741868131"),
			"GOMAXPROCS=1: parallel/serial"},
		{"parallel equal to serial at GOMAXPROCS 4", fixture(4, "590720704", "645102722"), ""},
		{"parallel over serial at GOMAXPROCS 4", fixture(4, "590720704", "645102723"),
			"GOMAXPROCS=4: parallel/serial"},
		{"parallel 1.1x serial passes only at GOMAXPROCS 1", fixture(1, "590720704", "709612994"), ""},
		{"parallel 1.1x serial fails at GOMAXPROCS 2", fixture(2, "590720704", "709612994"),
			"GOMAXPROCS=2: parallel/serial"},
		{"serial and parallel at different GOMAXPROCS",
			fixture(1, "BenchmarkStructuralPipelineParallel{P}", "BenchmarkStructuralPipelineParallel-4"),
			"BenchmarkStructuralPipelineSerial ran at GOMAXPROCS=1"},

		// Missing benchmarks.
		{"star60 missing", fixture(1, "BenchmarkCode/star60", "BenchmarkCode/star61"), "BenchmarkCode/star60 missing"},
		{"parallel missing", fixture(4, "BenchmarkStructuralPipelineParallel", "BenchmarkStructuralPipelineRemoved"),
			"BenchmarkStructuralPipelineParallel missing"},
		{"serial missing", fixture(4, "BenchmarkStructuralPipelineSerial", "BenchmarkStructuralPipelineRemoved"),
			"BenchmarkStructuralPipelineSerial missing"},
		{"canon run missing", fixture(1)[:strings.Index(fixture(1), "goos: linux\ngoarch: amd64\npkg: tnkd/internal/iso")],
			"BenchmarkCode/star20 missing"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := run(strings.NewReader(tc.input), &out)
			if tc.fail == "" {
				if err != nil {
					t.Fatalf("run = %v, want every check to pass:\n%s", err, out.String())
				}
				if strings.Contains(out.String(), "FAIL") {
					t.Fatalf("passing run printed a FAIL line:\n%s", out.String())
				}
				return
			}
			if err == nil {
				t.Fatalf("run passed, want a failure starting %q:\n%s", tc.fail, out.String())
			}
			if !strings.Contains(out.String(), "FAIL: "+tc.fail) {
				t.Fatalf("no FAIL line starting %q:\n%s", tc.fail, out.String())
			}
		})
	}
}

// TestGateOneLinePerCheck: a passing run prints one line for each of
// the six comparisons.
func TestGateOneLinePerCheck(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(fixture(1)), &out); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "ok: "); n != 6 {
		t.Fatalf("%d ok lines, want 6:\n%s", n, out.String())
	}
}

func TestGateUnusableInput(t *testing.T) {
	for _, tc := range []struct{ name, input, want string }{
		{"empty", "", "no benchmark lines"},
		{"no result lines", "goos: linux\npkg: tnkd\n--- FAIL: BenchmarkStructuralPipelineSerial\nFAIL\ttnkd\t0.1s\n", "no benchmark lines"},
		{"one benchmark at two GOMAXPROCS", fixture(1) + fixture(4), "BenchmarkStructuralPipelineSerial ran at GOMAXPROCS=1 and 4"},
		{"unparsable value", fixture(1, "30526 ns/op", "3o526 ns/op"), `metric "ns/op"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := run(strings.NewReader(tc.input), &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run = %v, want an error containing %q:\n%s", err, tc.want, out.String())
			}
		})
	}
}

func TestParseProcsSuffix(t *testing.T) {
	benches, err := parse(strings.NewReader(
		"BenchmarkCode/star20-16 \t 200\t 30526 ns/op\n" +
			"BenchmarkCode/star60 \t 200\t 202616 ns/op\n" +
			"BenchmarkCode/k-ary \t 200\t 1 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]struct {
		procs int
		ns    float64
	}{
		"BenchmarkCode/star20": {16, 30526},
		"BenchmarkCode/star60": {1, 202616},
		"BenchmarkCode/k-ary":  {1, 1},
	} {
		got, ok := benches[name]
		if !ok || got.procs != want.procs || got.median("ns/op") != want.ns {
			t.Errorf("%s: got %+v (present %v), want %+v", name, got, ok, want)
		}
	}
	if len(benches) != 3 {
		t.Errorf("parsed %d benchmarks, want 3: %v", len(benches), benches)
	}
}

// repeat returns realOutput once per given BenchmarkCode/star20 ns/op
// value, as `-count=N` repeats every benchmark.
func repeat(procs int, ns ...string) string {
	var b strings.Builder
	for _, v := range ns {
		b.WriteString(fixture(procs, "     30526 ns/op", " "+v+" ns/op"))
	}
	return b.String()
}

// TestGateRepeatedLines: with `-count=N` every gated benchmark prints N
// lines; the gate reads the median of each one's ns/op and still
// refuses a missing benchmark.
func TestGateRepeatedLines(t *testing.T) {
	for _, tc := range []struct {
		name  string
		input string
		fail  string // the FAIL line's start; "" = every check passes
	}{
		{"duplicate lines are aggregated", fixture(1) + fixture(1) + fixture(1), ""},
		// Limit 41133: one slow run of five does not decide the verdict...
		{"one slow run of five", repeat(4, "30526", "30100", "99999", "31000", "29800"), ""},
		// ...but a slow median fails, however fast the other runs are.
		{"slow median", repeat(4, "41134", "20000", "50000", "41200", "10000"), "BenchmarkCode/star20 41134 ns/op"},
		{"slow median of an even count", repeat(1, "41000", "41300", "10", "99999"), "BenchmarkCode/star20 41150 ns/op"},
		{"missing benchmark among repeats", strings.Repeat(fixture(4, "BenchmarkCode/star60", "BenchmarkCode/star61"), 5),
			"BenchmarkCode/star60 missing"},
		{"a repeat lost a pattern", fixture(1) + fixture(1, "645102722 ns/op	       722.0", "645102722 ns/op	       721.0"),
			"BenchmarkStructuralPipelineSerial mined 721 to 722 patterns"},
		{"parallel/serial compares medians", fixture(4) + fixture(4, "590720704", "645102723") + fixture(4, "590720704", "999999999"),
			"GOMAXPROCS=4: parallel/serial = 1.000"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := run(strings.NewReader(tc.input), &out)
			if tc.fail == "" {
				if err != nil {
					t.Fatalf("run = %v, want every check to pass:\n%s", err, out.String())
				}
				return
			}
			if err == nil || !strings.Contains(out.String(), "FAIL: "+tc.fail) {
				t.Fatalf("run = %v, want a FAIL line starting %q:\n%s", err, tc.fail, out.String())
			}
		})
	}
}
