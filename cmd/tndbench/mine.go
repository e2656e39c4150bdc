package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"tnkd/internal/core"
	"tnkd/internal/dataset"
	"tnkd/internal/fsg"
	"tnkd/internal/partition"
	"tnkd/internal/store"
)

// goldenDumps pins the sha256 of store.DumpPatterns of the mine-paper
// store at the full profile, for the calibration seed and for seed 1,
// the seed held out for claims. Any other seed is checked for
// agreement between its own mines.
var goldenDumps = map[int64]string{
	20050405: "fb020da56a5b8c64d565906e978f7c5515a8557bd47156a7296b57245580413c",
	1:        "8aacf2c9488f2bdcfab25376cecfd42e4e6a3ffb21e8b0b2ce424b3c81684f06",
}

// paperGraph is Figure 2's input: OD_TH, transit-hour edge labels over
// uniform vertex labels.
var paperGraph = dataset.GraphOptions{Attr: dataset.TransitHours, Vertices: dataset.UniformLabels}

// genConfig is the paper's calibrated generator at a scale, seeded.
func genConfig(scale float64, seed int64) dataset.GenConfig {
	cfg := dataset.DefaultConfig()
	if scale < 1 {
		cfg = cfg.Scaled(scale)
	}
	cfg.Seed = seed
	return cfg
}

// scaledInt shrinks a full-scale threshold the way the experiment
// runners do, keeping a floor.
func scaledInt(full, floor int, scale float64) int {
	return max(int(math.Round(float64(full)*scale)), floor)
}

// structuralOptions is Figure 2's Algorithm 1 run: breadth-first
// partitions, two repetitions, support 240 and patterns up to five
// edges at full scale.
func structuralOptions(scale float64, seed int64) core.StructuralOptions {
	return core.StructuralOptions{
		Strategy:    partition.BreadthFirst,
		Partitions:  scaledInt(800, 8, scale),
		Repetitions: 2,
		Support:     scaledInt(240, 3, scale),
		MaxEdges:    5,
		MaxSteps:    50000,
		Seed:        seed,
	}
}

// progressLog collects fsg.Options.Progress events; repetitions mine
// concurrently, so it locks.
type progressLog struct {
	mu     sync.Mutex
	events []levelEvent
}

type levelEvent struct {
	ev fsg.LevelProgress
	at time.Time
}

func (p *progressLog) record(_ int, ev fsg.LevelProgress) {
	at := time.Now()
	p.mu.Lock()
	p.events = append(p.events, levelEvent{ev, at})
	p.mu.Unlock()
}

// runMinePaper times Algorithm 1 at paper scale: BuildGraph →
// core.MineStructural → durable store, at least minMines times and
// until the run's seconds are spent. Generating the dataset is set-up.
func runMinePaper(cfg config) (*outcome, error) {
	prof := cfg.prof
	o := newOutcome(cfg.trace)
	var d *dataset.Dataset
	var setups []float64
	for i := 0; i < prof.setups; i++ {
		d = nil
		runtime.GC()
		t := time.Now()
		d = dataset.Generate(genConfig(prof.mineScale, cfg.seed))
		setups = append(setups, time.Since(t).Seconds())
	}
	o.m.set("setup_s", median(setups), len(setups))
	o.m.set("dataset.generate_s", median(setups), len(setups))

	opts := structuralOptions(prof.mineScale, cfg.seed)
	opts.StorePath = filepath.Join(cfg.workDir, "paper.tnd")
	var walls, builds, cores, others []float64
	levels := make([][]float64, 5)
	var cpu time.Duration
	var last fsg.LevelStats
	firstDump := ""
	ph := beginPhase()
	// Mine again while another mine, as long as the last one, still
	// fits in the run's seconds.
	var lastMine time.Duration
	for i := 0; i < prof.minMines || time.Since(ph.start)+lastMine <= cfg.seconds; i++ {
		runtime.GC()
		var plog progressLog
		opts.Progress = nil
		if cfg.trace {
			opts.Progress = plog.record
		}
		c0 := cpuTime()
		t0 := time.Now()
		g := d.BuildGraph(paperGraph)
		t1 := time.Now()
		_, err := core.MineStructural(g, opts)
		t2 := time.Now()
		cpu += cpuTime() - c0
		o.attempted++
		if err != nil {
			o.failed++
			o.check(false, "mine %d: %v", i, err)
			break
		}
		lastMine = t2.Sub(t0)
		walls = append(walls, ms(lastMine))
		builds = append(builds, t1.Sub(t0).Seconds())
		cores = append(cores, t2.Sub(t1).Seconds())

		root := o.tr.add(0, "bench.mine", i, t0, t2)
		o.tr.add(root, "dataset.build_graph", i, t0, t1)
		coreSpan := o.tr.add(root, "core.mine_structural", i, t1, t2)
		perLevel := make([]time.Duration, len(levels))
		var levelSpans []span
		last = fsg.LevelStats{}
		for _, e := range plog.events {
			start := e.at.Add(-e.ev.Elapsed)
			o.tr.add(coreSpan, "fsg.level", i, start, e.at)
			levelSpans = append(levelSpans, span{start: start.Sub(t1), end: e.at.Sub(t1)})
			if k := e.ev.Edges - 1; k >= 0 && k < len(perLevel) {
				perLevel[k] += e.ev.Elapsed
			}
			last.Candidates += e.ev.Candidates
			last.Frequent += e.ev.Frequent
			last.Embeddings += e.ev.Embeddings
			last.IsoTests += e.ev.IsoTests
		}
		o.live += len(plog.events)
		if len(levelSpans) > 0 {
			// Core draws every partitioning before the first level
			// starts; what it spends after that outside fsg's levels
			// is the union and the store write.
			lead := levelSpans[0].start
			for _, s := range levelSpans {
				lead = min(lead, s.start)
			}
			fsgWall := unionWithin(levelSpans, 0, t2.Sub(t1))
			others = append(others, (t2.Sub(t1) - lead - fsgWall).Seconds())
		}
		for k, busy := range perLevel {
			levels[k] = append(levels[k], busy.Seconds())
		}

		dump, err := o.dumpStore(opts.StorePath, i)
		if err != nil {
			o.failed++
			o.check(false, "mine %d: read back store: %v", i, err)
			continue
		}
		sum := sha256Hex(dump)
		if firstDump == "" {
			firstDump = sum
		}
		if sum != firstDump {
			o.failed++
			o.check(false, "mine %d dumped %s, mine 0 dumped %s", i, sum, firstDump)
		}
	}
	ph.end(o)
	if len(walls) == 0 {
		return o, nil
	}
	if want, ok := goldenDumps[cfg.seed]; ok && prof.golden {
		o.check(firstDump == want, "seed %d: dump sha256 %s, want %s", cfg.seed, firstDump, want)
	}
	o.m.set("latency_p50_ms", median(walls), len(walls))
	o.m.set("runtime.cpu_per_op_ms", ms(cpu)/float64(len(walls)), len(walls))
	o.m.set("dataset.build_graph_s", median(builds), len(builds))
	o.m.set("core.mine_structural_s", median(cores), len(cores))
	if !cfg.trace {
		return o, nil
	}

	for k, xs := range levels {
		o.m.set(fmt.Sprintf("fsg.level%d_s", k+1), median(xs), len(xs))
	}
	o.m.set("fsg.candidates", float64(last.Candidates), 1)
	o.m.set("fsg.frequent", float64(last.Frequent), 1)
	o.m.set("fsg.embeddings", float64(last.Embeddings), 1)
	o.m.set("fsg.iso_tests", float64(last.IsoTests), 1)
	o.m.set("fsg.frequent_per_candidate", float64(last.Frequent)/float64(last.Candidates), last.Candidates)
	if err := o.storeLayout(opts.StorePath); err != nil {
		return nil, err
	}

	// Standalone measurements the pipeline does not run: the partition
	// draws alone, and the single-threaded baseline.
	g := d.BuildGraph(paperGraph)
	rng := rand.New(rand.NewSource(opts.Seed))
	runtime.GC()
	t := time.Now()
	for rep := 0; rep < opts.Repetitions; rep++ {
		partition.SplitGraph(g, partition.SplitOptions{K: opts.Partitions, Strategy: opts.Strategy, Rand: rng})
	}
	split := time.Since(t).Seconds()
	o.m.set("partition.split_s", split, opts.Repetitions)
	o.m.set("core.other_s", median(others), len(others))

	runtime.GC()
	serial := opts
	serial.Parallelism = 1
	serial.Progress = nil
	serial.StorePath = filepath.Join(cfg.workDir, "serial.tnd")
	t = time.Now()
	if _, err := core.MineStructural(g, serial); err != nil {
		return nil, fmt.Errorf("serial mine: %w", err)
	}
	serialS := time.Since(t).Seconds()
	o.m.set("fsg.serial_mine_s", serialS, 1)
	o.m.set("engine.speedup", serialS/median(cores), len(cores))
	dump, err := o.dumpStore(serial.StorePath, -1)
	if err != nil {
		return nil, err
	}
	o.check(sha256Hex(dump) == firstDump, "the serial mine's dump differs from the parallel mine's")
	return o, nil
}

// dumpStore opens a store and renders store.DumpPatterns, timing both
// as the store layer's open and dump, and records their spans under
// request req unless req is negative.
func (o *outcome) dumpStore(path string, req int) (string, error) {
	t0 := time.Now()
	r, err := store.Open(path)
	if err != nil {
		return "", err
	}
	defer r.Close()
	t1 := time.Now()
	dump, err := store.DumpPatterns(r)
	if err != nil {
		return "", err
	}
	t2 := time.Now()
	if req >= 0 {
		root := o.tr.add(0, "bench.verify", req, t0, t2)
		o.tr.add(root, "store.open", req, t0, t1)
		o.tr.add(root, "store.dump", req, t1, t2)
	}
	o.m.set("store.open_s", t1.Sub(t0).Seconds(), 1)
	o.m.set("store.dump_s", t2.Sub(t1).Seconds(), 1)
	return dump, nil
}

// storeLayout records a store's size and its mean record decode cost,
// without (lite) and with (full) embedding lists.
func (o *outcome) storeLayout(path string) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	r, err := store.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	n := r.NumPatterns()
	if n == 0 {
		return nil
	}
	t := time.Now()
	for i := 0; i < n; i++ {
		if _, err := r.PatternLite(i); err != nil {
			return err
		}
	}
	lite := time.Since(t)
	t = time.Now()
	for i := 0; i < n; i++ {
		if _, err := r.Pattern(i); err != nil {
			return err
		}
	}
	full := time.Since(t)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / float64(n) }
	o.m.set("store.bytes", float64(fi.Size()), 1)
	o.m.set("store.decode_lite_us", us(lite), n)
	o.m.set("store.decode_full_us", us(full), n)
	return nil
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
