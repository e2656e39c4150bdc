package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// boundedMetric is an end-to-end metric of BENCHMARK.json with its
// regression bound: the share of the parent's median by which it may
// get worse.
type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]boundedMetric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []boundedMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// loadRuns reads the untraced runs of result files, by workload.
func loadRuns(paths []string) (map[string][]runRecord, error) {
	out := map[string][]runRecord{}
	for _, p := range paths {
		runs, err := readResults(p)
		if err != nil {
			return nil, err
		}
		for _, r := range runs {
			if !r.Trace {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
	}
	return out, nil
}

// compareFiles prints one row per workload judging every end-to-end
// metric of the new runs against the base runs, and fails when any
// metric regressed.
func compareFiles(w io.Writer, benchPath string, baseFiles, newFiles []string) error {
	bounds, err := readBounds(benchPath)
	if err != nil {
		return err
	}
	base, err := loadRuns(baseFiles)
	if err != nil {
		return err
	}
	cand, err := loadRuns(newFiles)
	if err != nil {
		return err
	}
	regressed := false
	for _, wl := range sortedKeys(base) {
		if len(cand[wl]) == 0 {
			continue
		}
		fmt.Fprintf(w, "%-14s", wl)
		for _, m := range bounds {
			v := judge(pairUp(base[wl], cand[wl], m.Name), m.Better == "higher", m.Bound)
			fmt.Fprintf(w, "  %s=%s(%+.1f%%)", m.Name, v.label, 100*v.delta)
			regressed = regressed || v.label == "regressed"
		}
		fmt.Fprintln(w)
	}
	if regressed {
		return errors.New("at least one metric regressed past its bound")
	}
	return nil
}

// paired holds one metric's values on both sides; pairs are the runs
// of the two sides that share a seed.
type paired struct {
	base, cand []float64
	pairs      [][2]float64
}

func pairUp(base, cand []runRecord, metric string) paired {
	var p paired
	bySeed := map[int64]float64{}
	for _, r := range base {
		if v, ok := r.Metrics[metric]; ok {
			p.base = append(p.base, v.Value)
			bySeed[r.Seed] = v.Value
		}
	}
	for _, r := range cand {
		if v, ok := r.Metrics[metric]; ok {
			p.cand = append(p.cand, v.Value)
			if b, ok := bySeed[r.Seed]; ok {
				p.pairs = append(p.pairs, [2]float64{b, v.Value})
			}
		}
	}
	return p
}

type verdict struct {
	label string  // gain, ok, regressed, unresolved or missing
	delta float64 // (candidate median - base median) / base median
}

// judge applies the benchmark's rules to one metric. A gain needs the
// candidate to win at least nine pairs in ten and its median to differ
// from the base's by more than the base's interquartile range; a
// regression is a median worse by more than the bound. When the base's
// own spread exceeds the bound the metric is unresolved, unless every
// candidate run beats every base run.
func judge(p paired, higherBetter bool, bound float64) verdict {
	if len(p.base) == 0 || len(p.cand) == 0 {
		return verdict{label: "missing"}
	}
	better := func(c, b float64) bool {
		if higherBetter {
			return c > b
		}
		return c < b
	}
	bm, cm := median(p.base), median(p.cand)
	v := verdict{delta: (cm - bm) / bm}
	worse := v.delta
	if higherBetter {
		worse = -worse
	}
	q1, q3 := quartiles(p.base)
	allBetter := true
	for _, c := range p.cand {
		for _, b := range p.base {
			allBetter = allBetter && better(c, b)
		}
	}
	wins := 0
	for _, pr := range p.pairs {
		if better(pr[1], pr[0]) {
			wins++
		}
	}
	switch {
	case (q3-q1)/bm > bound && !allBetter:
		v.label = "unresolved"
	case worse > bound:
		v.label = "regressed"
	case len(p.pairs) > 0 && wins*10 >= 9*len(p.pairs) && math.Abs(cm-bm) > q3-q1 && worse < 0:
		v.label = "gain"
	default:
		v.label = "ok"
	}
	return v
}
