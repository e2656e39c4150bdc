// Command benchgate is the CI benchmark gate. It reads standard
// `go test -bench` output on stdin, checks it against the rules and
// baselines below, prints one line per comparison and exits 1 if any
// rule fails, if a gated benchmark is missing, or if the input holds
// no benchmark lines at all.
//
// Usage:
//
//	{ go test -run '^$' -bench 'BenchmarkStructuralPipeline(Serial|Parallel)$' -benchtime=3x .
//	  go test -run '^$' -bench '^BenchmarkCode$' -benchtime=200x -count=5 ./internal/iso/
//	} | go run ./internal/benchgate
//
// A benchmark that appears on several lines (`-count=N`) is judged by
// the median of its ns/op over those lines, so one run slowed by a
// noisy neighbour does not decide the verdict; its pattern count must
// be exact on every line.
//
// The parallel/serial limit follows the GOMAXPROCS the benchmarks ran
// at, read from the name suffix `go test` adds (`-4`; none at
// GOMAXPROCS 1), so the gate needs no flag or environment variable.
package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// The gate rules. The baselines are the measurements CHANGES.md
// records with the high-automorphism canonical fast path (the "Bitset
// TID columns" entry), taken on a single-CPU Intel Xeon @ 2.10GHz:
// BenchmarkCode at -benchtime=200x, the structural pipeline as the
// median of three single-shot runs.
const (
	// The canonical labeller's high-automorphism shapes, the ones its
	// interchangeable-cell fast path exists for: losing it is a 5-30x
	// jump, so 1.5x absorbs runner noise on microsecond timings and
	// still cannot hide the loss.
	codeLimit         = 1.5
	codeStar20NS      = 27_422
	codeStar60NS      = 155_709
	codeBipartite44NS = 4_127

	// The Section 5 structural pipeline (Algorithm 1 over FSG). 2x
	// trips only order-of-magnitude regressions on varied CI
	// hardware; the pattern count must match exactly, because every
	// change must preserve mining output.
	pipelineLimit    = 2.0
	pipelineSerialNS = 1_870_115_797
	pipelinePatterns = 722

	// Parallel/serial ns/op. At GOMAXPROCS 1 the two are the same
	// computation, so only gross scheduling overhead may separate
	// them; with more CPUs the fan-out must pay.
	parallelLimitOneProc = 1.15
	parallelLimit        = 1.0
)

const (
	pipelineSerial   = "BenchmarkStructuralPipelineSerial"
	pipelineParallel = "BenchmarkStructuralPipelineParallel"
)

// bench is the result lines of one benchmark: the GOMAXPROCS it ran at
// and each metric's values, one per line, by unit ("ns/op",
// "patterns", ...).
type bench struct {
	procs   int
	metrics map[string][]float64
}

// median returns the median of b's values of unit (the mean of the two
// middle values for an even count; 0 when there are none).
func (b bench) median(unit string) float64 {
	vs := slices.Clone(b.metrics[unit])
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// runs describes how many lines a benchmark's ns/op was read from.
func (b bench) runs() string {
	if n := len(b.metrics["ns/op"]); n > 1 {
		return fmt.Sprintf(", median of %d runs", n)
	}
	return ""
}

func main() {
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// run parses in, writes one line per comparison to out and returns an
// error when the input is unusable or any rule fails.
func run(in io.Reader, out io.Writer) error {
	benches, err := parse(in)
	if err != nil {
		return err
	}
	if len(benches) == 0 {
		return errors.New("no benchmark lines on stdin")
	}
	checks, failed := 0, 0
	report := func(ok bool, format string, args ...any) {
		checks++
		verdict := "ok"
		if !ok {
			failed++
			verdict = "FAIL"
		}
		fmt.Fprintf(out, "%s: %s\n", verdict, fmt.Sprintf(format, args...))
	}
	atMost := func(name string, baseline, limit float64) {
		b, ok := benches[name]
		if !ok {
			report(false, "%s missing", name)
			return
		}
		ns := b.median("ns/op")
		r := ns / baseline
		report(r <= limit, "%s %.0f ns/op vs baseline %.0f (ratio %.2fx, limit %.2fx%s)",
			name, ns, baseline, r, limit, b.runs())
	}

	atMost("BenchmarkCode/star20", codeStar20NS, codeLimit)
	atMost("BenchmarkCode/star60", codeStar60NS, codeLimit)
	atMost("BenchmarkCode/bipartite44", codeBipartite44NS, codeLimit)

	atMost(pipelineSerial, pipelineSerialNS, pipelineLimit)
	serial, sok := benches[pipelineSerial]
	if sok {
		ns := serial.metrics["patterns"]
		lo, hi := 0.0, 0.0
		if len(ns) > 0 {
			lo, hi = slices.Min(ns), slices.Max(ns)
		}
		mined := fmt.Sprint(lo)
		if lo != hi {
			mined = fmt.Sprintf("%v to %v", lo, hi)
		}
		report(lo == pipelinePatterns && hi == pipelinePatterns, "%s mined %s patterns (want exactly %d)",
			pipelineSerial, mined, pipelinePatterns)
	}
	parallel, pok := benches[pipelineParallel]
	switch {
	case !pok:
		report(false, "%s missing", pipelineParallel)
	case !sok:
		// already reported missing above
	case serial.procs != parallel.procs:
		report(false, "%s ran at GOMAXPROCS=%d, %s at %d", pipelineSerial, serial.procs, pipelineParallel, parallel.procs)
	default:
		limit := parallelLimit
		if serial.procs == 1 {
			limit = parallelLimitOneProc
		}
		r := parallel.median("ns/op") / serial.median("ns/op")
		report(r <= limit, "GOMAXPROCS=%d: parallel/serial = %.3f (limit %.2f)", serial.procs, r, limit)
	}

	if failed > 0 {
		return fmt.Errorf("%d of %d checks failed", failed, checks)
	}
	return nil
}

// parse reads the result lines of `go test -bench` output, keyed by
// benchmark name without its -GOMAXPROCS suffix; repeated lines of one
// benchmark add values to its metrics. Other lines (goos, pkg, PASS,
// ok, logs) are skipped.
func parse(in io.Reader) (map[string]bench, error) {
	benches := make(map[string]bench)
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		// name, iterations, then value/unit pairs.
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		name, procs := f[0], 1
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 0 {
				name, procs = name[:i], n
			}
		}
		b, seen := benches[name]
		if !seen {
			b = bench{procs: procs, metrics: make(map[string][]float64)}
		} else if b.procs != procs {
			return nil, fmt.Errorf("%s ran at GOMAXPROCS=%d and %d", name, b.procs, procs)
		}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: metric %q: %v", f[0], f[i+1], err)
			}
			b.metrics[f[i+1]] = append(b.metrics[f[i+1]], v)
		}
		benches[name] = b
	}
	return benches, sc.Err()
}
