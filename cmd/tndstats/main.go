// Command tndstats prints the Section 3 / Table 1 data description
// for a dataset — transaction counts, distinct locations and OD
// pairs, attribute ranges, and OD-graph degree statistics — or, with
// -store, the statistics of a persisted pattern/embedding store
// (per-level pattern counts, support distribution, embedding volume
// and completeness) without re-mining anything.
//
// Usage:
//
//	tndstats [-in file.csv | -scale 0.1]
//	tndstats -store out.tnd [-patterns | -json]
//
// -store reports provenance alongside the level tables: the delta
// chain (generation, parent path), the sliding-window bounds when the
// store was produced by a windowed run (`window: units=START..END
// retired=N`, plus the per-unit sizes an ingest daemon records), the
// Algorithm 1 partitioning parameters for structural stores, and the
// size of the persisted location index. Everything it prints comes
// from the footer index; no pattern record is decoded.
//
// -patterns dumps every pattern record as one deterministic line
// (level, canonical code, support, TID list) with no timestamps or
// provenance, so two stores hold the same mining result exactly when
// their dumps are byte-identical — `diff` of two dumps is the
// delta-mining equivalence check CI runs.
//
// -json emits the same store statistics as a single JSON object so CI
// can assert on fields with jq instead of grepping the human table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"tnkd"
	"tnkd/internal/experiments"
	"tnkd/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tndstats: ")
	in := flag.String("in", "", "input CSV (default: generate synthetic data)")
	scale := flag.Float64("scale", 1.0, "synthetic dataset scale when no -in")
	storePath := flag.String("store", "", "report pattern/support/embedding statistics from this persisted store instead of a dataset")
	patterns := flag.Bool("patterns", false, "with -store: dump every pattern record (level, code, support, TID list) as deterministic diff-able lines instead of aggregate statistics")
	jsonOut := flag.Bool("json", false, "with -store: emit the statistics as one JSON object (machine-readable twin of the table)")
	flag.Parse()
	if *jsonOut && *storePath == "" {
		log.Fatal("-json requires -store (dataset descriptions have no JSON form)")
	}
	if *jsonOut && *patterns {
		log.Fatal("-json and -patterns are mutually exclusive (the pattern dump is already machine-diffable)")
	}

	if *storePath != "" {
		r, err := store.Open(*storePath)
		if err != nil {
			log.Fatal(err)
		}
		defer r.Close()
		if *patterns {
			dump, err := store.DumpPatterns(r)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(dump)
			return
		}
		st := store.ReadStats(r)
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(st); err != nil {
				log.Fatal(err)
			}
			return
		}
		fmt.Print(st)
		return
	}

	var data *tnkd.Dataset
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		data, err = tnkd.ReadCSV(f)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		cfg := tnkd.DefaultConfig()
		if *scale < 1 {
			cfg = tnkd.ScaledConfig(*scale)
		}
		data = tnkd.GenerateDataset(cfg)
	}
	res := experiments.RunTable1(experiments.Params{Data: data, Scale: *scale})
	fmt.Print(res)
}
