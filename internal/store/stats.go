package store

import (
	"fmt"
	"strings"
	"time"
)

// LevelStats aggregates one stored level from the footer index alone
// (no record decodes).
type LevelStats struct {
	Edges      int `json:"edges"`
	Patterns   int `json:"patterns"`
	MinSupport int `json:"min_support"`
	MaxSupport int `json:"max_support"`
	SumSupport int `json:"sum_support"`
	Embeddings int `json:"embeddings"`
	// Complete counts patterns with complete embedding lists;
	// Seeded counts overflowed patterns that kept warm-start seeds;
	// Bare counts patterns with no lists at all.
	Complete int `json:"complete"`
	Seeded   int `json:"seeded"`
	Bare     int `json:"bare"`
	// TID-column encoding: ListCols and BitsetCols count records by
	// the encoding the writer picked. ArrayCons and BitmapCons count
	// the containers inside bitset columns, and ColumnBytes is the
	// on-disk size of every TID column in the level.
	ListCols    int `json:"list_cols"`
	BitsetCols  int `json:"bitset_cols"`
	ArrayCons   int `json:"array_containers"`
	BitmapCons  int `json:"bitmap_containers"`
	ColumnBytes int `json:"column_bytes"`
}

// Stats is the whole-store statistics report backing `tndstats
// -store`. The JSON shape (tndstats -json) is the machine-readable
// twin of the String table and is what CI asserts on with jq.
// Version is always FormatVersion and LocIndex.Present always true;
// both keep the JSON shape.
type Stats struct {
	Path         string       `json:"path"`
	Version      int          `json:"version"`
	Meta         Meta         `json:"meta"`
	Transactions int          `json:"transactions"`
	Patterns     int          `json:"patterns"`
	Embeddings   int          `json:"embeddings"`
	Levels       []LevelStats `json:"levels"`
	// LocIndex describes the persisted per-location inverted index
	// section.
	LocIndex LocationIndexInfo `json:"location_index"`
}

// ReadStats aggregates a store's index into a statistics report.
func ReadStats(r *Reader) Stats {
	st := Stats{
		Path:         r.Path(),
		Version:      FormatVersion,
		Meta:         r.Meta(),
		Transactions: r.NumTransactions(),
		Patterns:     r.NumPatterns(),
		LocIndex:     r.LocationIndexStats(),
	}
	for _, lv := range r.levels {
		ls := LevelStats{Edges: lv.edges, Patterns: lv.count}
		for i := lv.start; i < lv.start+lv.count; i++ {
			info := r.Info(i)
			if ls.MinSupport == 0 || info.Support < ls.MinSupport {
				ls.MinSupport = info.Support
			}
			if info.Support > ls.MaxSupport {
				ls.MaxSupport = info.Support
			}
			ls.SumSupport += info.Support
			ls.Embeddings += info.Embeddings
			switch {
			case info.HasEmbeddings:
				ls.Complete++
			case info.Overflowed && info.Embeddings > 0:
				ls.Seeded++
			default:
				ls.Bare++
			}
			// Encoding split from the index flags alone; the decode
			// pass below fills in container counts and byte sizes.
			if r.recs[i].flags&flagTIDBitset != 0 {
				ls.BitsetCols++
			} else {
				ls.ListCols++
			}
			if ci, err := r.columnInfo(i); err == nil {
				ls.ArrayCons += ci.arrays
				ls.BitmapCons += ci.bitmaps
				ls.ColumnBytes += ci.bytes
			}
		}
		st.Embeddings += ls.Embeddings
		st.Levels = append(st.Levels, ls)
	}
	return st
}

// String renders the report in the repository's table style.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Store: %s ===\n", s.Path)
	m := s.Meta
	fmt.Fprintf(&b, "format=v%d kind=%s name=%q min-support=%d", s.Version, orUnset(m.Kind), m.Name, m.MinSupport)
	if m.CreatedUnix != 0 {
		fmt.Fprintf(&b, " created=%s", time.Unix(m.CreatedUnix, 0).UTC().Format(time.RFC3339))
	}
	b.WriteByte('\n')
	if m.Parent != "" || m.Generation > 0 {
		fmt.Fprintf(&b, "delta: generation=%d parent=%s\n", m.Generation, m.Parent)
	}
	if m.WindowStart > 0 || m.WindowEnd > 0 {
		fmt.Fprintf(&b, "window: units=%d..%d retired=%d", m.WindowStart, m.WindowEnd, m.Retired)
		if len(m.WindowSizes) > 0 {
			fmt.Fprintf(&b, " sizes=%v", m.WindowSizes)
		}
		b.WriteByte('\n')
	}
	if m.Repetitions > 0 {
		fmt.Fprintf(&b, "algorithm1: repetitions=%d partitions=%d strategy=%s seed=%d\n",
			m.Repetitions, m.Partitions, m.Strategy, m.Seed)
	}
	if m.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", m.Note)
	}
	fmt.Fprintf(&b, "transactions=%d patterns=%d stored embeddings=%d\n",
		s.Transactions, s.Patterns, s.Embeddings)
	if len(s.Levels) == 0 {
		return b.String()
	}
	b.WriteString("edges  patterns  support(min/avg/max)  embeddings  complete  seeded  bare\n")
	for _, lv := range s.Levels {
		avg := 0.0
		if lv.Patterns > 0 {
			avg = float64(lv.SumSupport) / float64(lv.Patterns)
		}
		fmt.Fprintf(&b, "%5d  %8d  %8d/%6.1f/%4d  %10d  %8d  %6d  %4d\n",
			lv.Edges, lv.Patterns, lv.MinSupport, avg, lv.MaxSupport,
			lv.Embeddings, lv.Complete, lv.Seeded, lv.Bare)
	}
	b.WriteString("TID columns (writer picks the smaller encoding per record):\n")
	b.WriteString("edges  list-cols  bitset-cols  array-cons  bitmap-cons  column-bytes\n")
	for _, lv := range s.Levels {
		fmt.Fprintf(&b, "%5d  %9d  %11d  %10d  %11d  %12d\n",
			lv.Edges, lv.ListCols, lv.BitsetCols, lv.ArrayCons, lv.BitmapCons, lv.ColumnBytes)
	}
	fmt.Fprintf(&b, "location index (v4, persisted at write time): labels=%d hits=%d no-embedding-records=%d bytes=%d\n",
		s.LocIndex.Labels, s.LocIndex.Hits, s.LocIndex.NoEmb, s.LocIndex.Bytes)
	return b.String()
}

func orUnset(s string) string {
	if s == "" {
		return "unset"
	}
	return s
}

// DumpPatterns renders every pattern record as one line of exact
// mining output — level, canonical code, support, full TID list — in
// store order, with nothing time-, path- or provenance-dependent.
// Two stores hold the same mining result if and only if their dumps
// are equal, which is what the end-to-end checks diff
// (`tndstats -store x -patterns`): every generation must be
// line-for-line identical to a one-shot mine of the same window.
func DumpPatterns(r *Reader) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "transactions=%d patterns=%d\n", r.NumTransactions(), r.NumPatterns())
	for _, lv := range r.levels {
		fmt.Fprintf(&b, "level %d: %d patterns\n", lv.edges, lv.count)
		for i := lv.start; i < lv.start+lv.count; i++ {
			p, err := r.PatternLite(i)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "  %s support=%d tids=", p.Code, p.Support)
			for j, tid := range p.TIDs.All() {
				if j > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%d", tid)
			}
			b.WriteByte('\n')
		}
	}
	return b.String(), nil
}
