// Package store is the on-disk persistence layer for mined patterns
// and their embeddings: a versioned binary file format that holds a
// transaction set together with level-ordered pattern records
// (pattern graph, isomorphism-invariant code, TID list, dense per-TID
// embedding lists — the internal/pattern representation, whose flat
// dense arrays are already serialisation-shaped).
//
// The format is built for the two access patterns the ROADMAP's
// serving layer needs:
//
//   - Streaming writes. A mining run checkpoints each Apriori level
//     as it completes (fsg.Options.Checkpoint): Writer appends the
//     level's records and then a fresh footer, flushing both, so at
//     every point between checkpoints the file ends with a valid
//     trailer describing everything written so far. A run that dies
//     mid-level leaves a file Open rejects (its tail is a partial
//     record, not a trailer) but Recover salvages: it scans back to
//     the last intact footer and serves the store as of that
//     checkpoint. Superseded footers become small dead gaps in the
//     body that no index entry references.
//   - Random reads. Reader memory-maps the file (falling back to
//     pread on platforms without mmap) and loads only the footer
//     index at Open: per-record offsets, codes, supports and level
//     directory. Pattern lookup by code is a map hit plus one record
//     decode; nothing else is read. Transactions decode lazily and
//     are cached, so "where does pattern P occur?" is answered from
//     the stored embeddings without ever re-running an isomorphism
//     search.
//
// File layout, format version 4 (all integers little-endian or
// uvarint):
//
//	header   magic "TNDSTOR1" (8 bytes) | format version (uint32)
//	body     transaction records, then pattern records in level order
//	         (with a superseded footer after each checkpoint)
//	index    meta JSON | transaction spans | level directory with
//	         per-record (offset, length, code, support, embeddings,
//	         flags) | location index
//	trailer  index offset (uint64) | index length (uint64) |
//	         index CRC-32 (uint32) | end magic "TNDSTEND"
//
// A pattern record holds the graph, its exact canonical code
// (iso.Code: equal code ⟺ isomorphic pattern), support, flags, a
// self-describing TID column (delta-coded list or roaring-style
// bitset containers, whichever is smaller — see encodeTIDColumn),
// the embedding lists and, for overflowed records, a column marking
// which per-TID lists are seeds (pattern.Pattern.Partial). The
// location index maps every vertex label to the records whose stored
// embeddings touch it (see encodeLocIndex); the writer computes it
// from the embeddings it is already serialising, so a mounted store
// answers location queries without a scan.
//
// Stores written in older format versions are refused with an error
// naming the version; re-mine them with this build. Wrong magic, a
// missing trailer or a CRC mismatch likewise fail Open with a clear
// error — never a garbage decode.
package store

import (
	"encoding/binary"
	"fmt"
	"sort"

	"tnkd/internal/graph"
	"tnkd/internal/iso"
	"tnkd/internal/pattern"
)

const (
	// magic opens every store file: 7 identifying bytes plus a
	// format-generation digit.
	magic = "TNDSTOR1"
	// endMagic closes every complete store file; its absence means
	// the writing run died before Close.
	endMagic = "TNDSTEND"
	// FormatVersion is the only format version this build reads or
	// writes (see the package doc).
	FormatVersion = 4

	headerSize  = len(magic) + 4
	trailerSize = 8 + 8 + 4 + len(endMagic)
)

// Meta is the run-level metadata persisted with a store. It is JSON
// in the index block, so fields can grow without a format-version
// bump.
type Meta struct {
	// Name identifies the mined input (e.g. the source graph name).
	Name string `json:"name,omitempty"`
	// Kind is the pipeline that produced the store: "fsg",
	// "structural" (Algorithm 1; transactions are the concatenated
	// partitionings of every repetition, pattern TIDs offset per
	// repetition) or "temporal" (Section 6 per-day transactions).
	Kind string `json:"kind,omitempty"`
	// MinSupport is the absolute support threshold of the run.
	MinSupport int `json:"min_support,omitempty"`
	// CreatedUnix is the write time in Unix seconds.
	CreatedUnix int64 `json:"created_unix,omitempty"`
	// Note carries free-form provenance (repetition layout, abort
	// reasons, ...).
	Note string `json:"note,omitempty"`

	// Lineage. A store that succeeds a previous generation (core
	// DeltaFrom runs, every ingest publish) records its parent chain
	// here; a first generation leaves both zero. Meta is JSON in the
	// index block, so these fields read back as zero values from
	// stores written before they existed — no format-version bump.

	// Parent is the path of the generation this one succeeds ("" for
	// a first generation).
	Parent string `json:"parent,omitempty"`
	// Generation counts generations: 0 for a first generation, parent
	// generation + 1 for each successor.
	Generation int `json:"generation,omitempty"`

	// SourceBatch/SourceSHA identify the ingest batch whose fold
	// produced this store (empty outside the ingest daemon). Ingest
	// recovery matches them against a journaled fold intent, so a
	// dangling intent can only ever complete against the store file
	// its own batch wrote — never against a same-named generation
	// published by a different batch.
	SourceBatch string `json:"source_batch,omitempty"`
	SourceSHA   string `json:"source_sha,omitempty"`

	// Window provenance. A store of a sliding window (core Window
	// runs, ingest with Options.Window) records which stretch of the
	// source stream its transactions cover; append-only and full-mine stores
	// leave all of these zero. Like the lineage fields, they read back
	// as zero values from older stores — no format-version bump.

	// WindowStart/WindowEnd bound the window as 1-based ordinals of
	// the pipeline's slide unit (days for the temporal pipeline,
	// ingest batches for the daemon; the seed store is unit 1). Both
	// zero = not a windowed store; WindowStart 1 with WindowEnd set =
	// a windowed run that has not yet retired anything.
	WindowStart int `json:"window_start,omitempty"`
	WindowEnd   int `json:"window_end,omitempty"`
	// Retired is the number of parent-generation transactions that
	// fell off the window's front when this store was written (0 for
	// a pure append). The store holds only the window: survivors are
	// numbered from 0, exactly as in a fresh mine of the window.
	Retired int `json:"retired,omitempty"`
	// WindowSizes is the per-unit transaction count of every unit
	// still inside the window, oldest first (ingest daemon only). Its
	// sum is the store's transaction count; a restarting daemon
	// rebuilds the window composition from this field alone.
	WindowSizes []int `json:"window_sizes,omitempty"`

	// Algorithm 1 provenance (Kind "structural" only): the exact
	// partitioning parameters of the run, which a structural delta
	// (appending repetitions) must reproduce to keep the shared RNG
	// stream — and therefore the mined output — identical to a full
	// run at the combined repetition count.

	// Repetitions is the number of Algorithm 1 repetitions whose
	// records the store holds.
	Repetitions int `json:"repetitions,omitempty"`
	// Partitions is Algorithm 1's k.
	Partitions int `json:"partitions,omitempty"`
	// Seed is the partitioning RNG seed.
	Seed int64 `json:"seed,omitempty"`
	// Strategy is the SplitGraph traversal order ("breadth-first" /
	// "depth-first").
	Strategy string `json:"strategy,omitempty"`
}

// pattern record flags.
const (
	flagHasEmbs    = 1 << 0 // Embs lists present (complete or seeds)
	flagOverflowed = 1 << 1 // some lists are seeds / absent, not complete
	// flagTIDBitset mirrors the TID column's on-disk encoding choice
	// (the column is self-describing; the flag copy makes the
	// encoding visible from the footer index alone, for tndstats).
	// flagPartial announces the per-TID completeness column after the
	// embedding section.
	flagTIDBitset = 1 << 2 // TID column stored as bitset containers
	flagPartial   = 1 << 3 // per-TID partial-completeness column present
)

// span locates one record in the file body.
type span struct {
	off, len uint64
}

// recInfo is the footer index entry of one pattern record: enough to
// answer listing, support and statistics queries without decoding the
// record itself.
type recInfo struct {
	span
	code       string
	support    uint32
	embeddings uint32
	flags      byte
}

// levelInfo is one level-directory entry: level-ordered records
// [start, start+count) in global record order.
type levelInfo struct {
	edges int
	start int
	count int
}

// LevelInfo describes one stored mining level (JSON-tagged: it is
// served verbatim by internal/serve).
type LevelInfo struct {
	// Edges is the pattern size of the level.
	Edges int `json:"edges"`
	// Patterns is the number of pattern records in the level.
	Patterns int `json:"patterns"`
}

// --- encoding primitives ---

// enc is an append-only encode buffer.
type enc struct {
	buf []byte
}

func (e *enc) byte(b byte)      { e.buf = append(e.buf, b) }
func (e *enc) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// dec decodes from a byte slice, latching the first error so callers
// can decode a whole structure and check once.
type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("store: truncated record (byte at %d/%d)", d.off, len(d.buf))
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("store: truncated record (uvarint at %d/%d)", d.off, len(d.buf))
		return 0
	}
	d.off += n
	return v
}

// count reads a uvarint length and bounds it by the remaining bytes
// (each element costs at least one byte), so corrupt lengths fail
// cleanly instead of attempting a huge allocation.
func (d *dec) count() int {
	v := d.uvarint()
	if d.err == nil && v > uint64(len(d.buf)-d.off) {
		d.fail("store: corrupt record (count %d exceeds %d remaining bytes)", v, len(d.buf)-d.off)
		return 0
	}
	return int(v)
}

func (d *dec) str() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("store: %d trailing bytes after record", len(d.buf)-d.off)
	}
	return nil
}

// --- graph codec ---

// encodeGraph serialises g with its ID space intact: tombstoned
// vertex and edge slots are preserved as dead markers, so decoded
// graphs carry identical IDs and stored embeddings (which reference
// transaction vertex/edge IDs) stay valid.
func encodeGraph(e *enc, g *graph.Graph) {
	e.str(g.Name)
	vcap := g.VertexCap()
	e.uvarint(uint64(vcap))
	for id := 0; id < vcap; id++ {
		if g.HasVertex(graph.VertexID(id)) {
			e.byte(1)
			e.str(g.Vertex(graph.VertexID(id)).Label)
		} else {
			e.byte(0)
		}
	}
	ecap := g.EdgeCap()
	e.uvarint(uint64(ecap))
	for id := 0; id < ecap; id++ {
		if g.HasEdge(graph.EdgeID(id)) {
			ed := g.Edge(graph.EdgeID(id))
			e.byte(1)
			e.uvarint(uint64(ed.From))
			e.uvarint(uint64(ed.To))
			e.str(ed.Label)
		} else {
			e.byte(0)
		}
	}
}

// decodeGraph rebuilds a graph slot by slot. Dead slots are recreated
// by adding a placeholder and removing it, which reproduces the
// original dense ID assignment exactly; a dead edge's endpoints are
// unobservable through the graph API, so the placeholder wiring is
// semantically identical to the original.
func decodeGraph(d *dec) *graph.Graph {
	g := graph.New(d.str())
	vcap := d.count()
	var deadV []graph.VertexID
	for i := 0; i < vcap; i++ {
		if d.byte() == 1 {
			g.AddVertex(d.str())
		} else {
			deadV = append(deadV, g.AddVertex(""))
		}
		if d.err != nil {
			return nil
		}
	}
	ecap := d.count()
	var deadE []graph.EdgeID
	for i := 0; i < ecap; i++ {
		if d.byte() == 1 {
			from, to := int(d.uvarint()), int(d.uvarint())
			label := d.str()
			if d.err != nil {
				return nil
			}
			if from >= vcap || to >= vcap {
				d.fail("store: corrupt graph record (edge endpoint %d/%d beyond %d vertices)", from, to, vcap)
				return nil
			}
			g.AddEdge(graph.VertexID(from), graph.VertexID(to), label)
		} else {
			if vcap == 0 {
				d.fail("store: corrupt graph record (dead edge slot in vertex-less graph)")
				return nil
			}
			deadE = append(deadE, g.AddEdge(0, 0, ""))
		}
	}
	for _, id := range deadE {
		g.RemoveEdge(id)
	}
	for _, id := range deadV {
		g.RemoveVertex(id)
	}
	return g
}

// --- TID column codec ---

// TID column encodings (the kind byte opening every column).
const (
	tidColList   = 0 // uvarint count + delta-coded uvarint members
	tidColBitset = 1 // uvarint chunk count + per-chunk containers
)

// bitset container kinds.
const (
	tidConArray  = 0 // uvarint count + count × uint16 LE low bits
	tidConBitmap = 1 // 1024 × uint64 LE (8192 raw bytes)
)

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// tidColumnSizes computes the encoded byte size of both encodings
// without materialising either, so the writer can pick the smaller.
func tidColumnSizes(s pattern.TIDSet) (listSize, bitsetSize int) {
	listSize = 1 + uvarintLen(uint64(s.Len()))
	prev := 0
	for tid := range s.Values() {
		listSize += uvarintLen(uint64(tid - prev))
		prev = tid
	}
	bitsetSize = 1 + uvarintLen(uint64(s.NumChunks()))
	for ch := range s.Chunks() {
		bitsetSize += uvarintLen(uint64(ch.Key)) + 1
		if ch.Bits != nil {
			bitsetSize += 8 * len(ch.Bits)
		} else {
			bitsetSize += uvarintLen(uint64(len(ch.Arr))) + 2*len(ch.Arr)
		}
	}
	return listSize, bitsetSize
}

// encodeTIDColumn serialises one TID column self-describingly,
// choosing whichever of the two encodings is smaller (ties go to the
// delta-coded list). Returns true when the bitset encoding was
// chosen, so the record flags can mirror the choice into the index.
func encodeTIDColumn(e *enc, s pattern.TIDSet) bool {
	listSize, bitsetSize := tidColumnSizes(s)
	if listSize <= bitsetSize {
		e.byte(tidColList)
		e.uvarint(uint64(s.Len()))
		prev := 0
		for tid := range s.Values() {
			e.uvarint(uint64(tid - prev))
			prev = tid
		}
		return false
	}
	e.byte(tidColBitset)
	e.uvarint(uint64(s.NumChunks()))
	for ch := range s.Chunks() {
		e.uvarint(uint64(ch.Key))
		if ch.Bits != nil {
			e.byte(tidConBitmap)
			for _, w := range ch.Bits {
				e.buf = binary.LittleEndian.AppendUint64(e.buf, w)
			}
			continue
		}
		e.byte(tidConArray)
		e.uvarint(uint64(len(ch.Arr)))
		for _, v := range ch.Arr {
			e.buf = binary.LittleEndian.AppendUint16(e.buf, v)
		}
	}
	return true
}

// maxTID is the largest TID a pattern.TIDSet represents: a uint32
// chunk key over 16 low bits.
const maxTID = 1<<48 - 1

// tidColumnInfo describes one decoded column's on-disk shape — the
// raw material of the tndstats encoding report.
type tidColumnInfo struct {
	bitset          bool
	bytes           int
	arrays, bitmaps int
}

// decodeTIDColumn rebuilds one self-describing TID column.
func decodeTIDColumn(d *dec) (pattern.TIDSet, tidColumnInfo) {
	var s pattern.TIDSet
	info := tidColumnInfo{}
	start := d.off
	switch kind := d.byte(); kind {
	case tidColList:
		n := d.count()
		prev := 0
		for i := 0; i < n && d.err == nil; i++ {
			// Members ascend strictly from a first delta off 0, and
			// must stay representable.
			delta := d.uvarint()
			if d.err == nil && (i > 0 && delta == 0 || delta > maxTID-uint64(prev)) {
				d.fail("store: corrupt TID column (delta %d after TID %d)", delta, prev)
				break
			}
			prev += int(delta)
			s.Add(prev)
		}
	case tidColBitset:
		info.bitset = true
		chunks := d.count()
		for i := 0; i < chunks && d.err == nil; i++ {
			key := d.uvarint()
			var ch pattern.TIDChunk
			ch.Key = uint32(key)
			switch ckind := d.byte(); ckind {
			case tidConArray:
				n := d.count()
				if d.err != nil {
					return s, info
				}
				if rem := len(d.buf) - d.off; 2*n > rem {
					d.fail("store: corrupt TID column (array container %d×2 bytes exceeds %d remaining)", n, rem)
					return s, info
				}
				arr := make([]uint16, n)
				for j := range arr {
					arr[j] = binary.LittleEndian.Uint16(d.buf[d.off:])
					d.off += 2
				}
				ch.Arr = arr
				info.arrays++
			case tidConBitmap:
				if rem := len(d.buf) - d.off; 8*1024 > rem {
					d.fail("store: corrupt TID column (bitmap container exceeds %d remaining bytes)", rem)
					return s, info
				}
				words := make([]uint64, 1024)
				for j := range words {
					words[j] = binary.LittleEndian.Uint64(d.buf[d.off:])
					d.off += 8
				}
				ch.Bits = words
				info.bitmaps++
			default:
				d.fail("store: unknown TID container kind %d", ckind)
				return s, info
			}
			if err := s.AddChunk(ch); err != nil {
				d.fail("store: corrupt TID column: %v", err)
				return s, info
			}
		}
	default:
		d.fail("store: unknown TID column encoding %d", kind)
	}
	info.bytes = d.off - start
	return s, info
}

// --- pattern codec ---

// encodePattern serialises one pattern record and returns the flags
// byte written (the index stores a copy): graph, code, support,
// flags, the self-describing TID column, the embedding section (flat
// uvarint runs, one list per TID), then the Partial column when
// flagPartial is set.
func encodePattern(e *enc, p *pattern.Pattern) byte {
	encodeGraph(e, p.Graph)
	e.str(p.Code)
	e.uvarint(uint64(p.Support))
	flags := patternFlags(p)
	// The flags byte must precede the column it describes, so decide
	// the encoding (a size computation, no second buffer) first.
	listSize, bitsetSize := tidColumnSizes(p.TIDs)
	if bitsetSize < listSize {
		flags |= flagTIDBitset
	}
	e.byte(flags)
	encodeTIDColumn(e, p.TIDs)
	encodeEmbSection(e, p)
	if flags&flagPartial != 0 {
		encodeTIDColumn(e, p.Partial)
	}
	return flags
}

func encodeEmbSection(e *enc, p *pattern.Pattern) {
	if p.Embs == nil {
		return
	}
	for _, list := range p.Embs {
		e.uvarint(uint64(len(list)))
		for _, emb := range list {
			e.uvarint(uint64(len(emb.Verts)))
			for _, v := range emb.Verts {
				e.uvarint(uint64(v))
			}
			e.uvarint(uint64(len(emb.Edges)))
			for _, ed := range emb.Edges {
				e.uvarint(uint64(ed))
			}
		}
	}
}

// decodePatternHead rebuilds everything up to the embedding section —
// graph, code, support, flags, TID column — leaving the decoder
// positioned at the embedding section (if the flags announce one).
func decodePatternHead(d *dec) (*pattern.Pattern, byte, tidColumnInfo) {
	p := &pattern.Pattern{Graph: decodeGraph(d)}
	p.Code = d.str()
	p.Support = int(d.uvarint())
	flags := d.byte()
	if d.err != nil {
		return nil, 0, tidColumnInfo{}
	}
	p.Overflowed = flags&flagOverflowed != 0
	tids, info := decodeTIDColumn(d)
	p.TIDs = tids
	return p, flags, info
}

// --- location index codec ---

// LocationHit is one entry of the persisted per-location inverted
// index: a pattern record whose stored embeddings touch the label,
// with the occurrence count (embeddings containing at least one
// vertex of the label) and the supporting TIDs.
type LocationHit struct {
	// Record is the global record index.
	Record int
	// Occurrences counts embeddings touching the label.
	Occurrences int
	// TIDs are the transactions holding those embeddings.
	TIDs pattern.TIDSet
}

// locIndex is the in-memory form of the persisted section: hits per
// label in ascending record order, plus the count of records that
// store no embeddings at all (and so cannot appear under any label).
type locIndex struct {
	byLabel map[string][]LocationHit
	noEmb   int
	bytes   int // encoded size, for the stats report
}

// encodeLocIndex serialises the section: a presence byte (always 1;
// kept so the byte layout stays that of every store written so far),
// then the no-embeddings record count, then per label (ascending) its
// hit list with delta-coded record indices, occurrence counts and
// self-describing TID columns.
func encodeLocIndex(e *enc, byLabel map[string][]LocationHit, noEmb int) {
	e.byte(1)
	e.uvarint(uint64(noEmb))
	labels := make([]string, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	e.uvarint(uint64(len(labels)))
	for _, l := range labels {
		e.str(l)
		hits := byLabel[l]
		e.uvarint(uint64(len(hits)))
		prev := 0
		for _, h := range hits {
			e.uvarint(uint64(h.Record - prev))
			prev = h.Record
			e.uvarint(uint64(h.Occurrences))
			encodeTIDColumn(e, h.TIDs)
		}
	}
}

// decodeLocIndex rebuilds the section, validating every hit against
// the already-parsed record and transaction counts — a store is
// external input, so a corrupt index must fail Open, not serve
// out-of-range record references.
func decodeLocIndex(d *dec, numRecs, numTxns int) locIndex {
	start := d.off
	idx := locIndex{byLabel: map[string][]LocationHit{}}
	if present := d.byte(); d.err == nil && present != 1 {
		d.fail("store: corrupt location index (presence byte %d)", present)
	}
	noEmb := d.uvarint()
	if d.err == nil && noEmb > uint64(numRecs) {
		d.fail("store: corrupt location index (%d no-embedding records of %d)", noEmb, numRecs)
	}
	idx.noEmb = int(noEmb)
	nLabels := d.count()
	for i := 0; i < nLabels && d.err == nil; i++ {
		label := d.str()
		nHits := d.count()
		hits := make([]LocationHit, 0, nHits)
		rec := 0
		for j := 0; j < nHits && d.err == nil; j++ {
			// Record indices ascend strictly from a first delta off 0.
			delta := d.uvarint()
			occ := int(d.uvarint())
			tids, _ := decodeTIDColumn(d)
			if d.err != nil {
				break
			}
			if j > 0 && delta == 0 || delta >= uint64(numRecs-rec) {
				d.fail("store: corrupt location index (label %q references record %d+%d of %d)", label, rec, delta, numRecs)
				break
			}
			rec += int(delta)
			if occ < 1 || tids.Len() < 1 || tids.Len() > occ {
				d.fail("store: corrupt location index (label %q record %d: %d occurrences over %d TIDs)", label, rec, occ, tids.Len())
				break
			}
			if tids.Max() >= numTxns {
				d.fail("store: corrupt location index (label %q TID %d beyond %d transactions)", label, tids.Max(), numTxns)
				break
			}
			hits = append(hits, LocationHit{Record: rec, Occurrences: occ, TIDs: tids})
		}
		if d.err == nil {
			idx.byLabel[label] = hits
		}
	}
	idx.bytes = d.off - start
	return idx
}

// invertEmbeddings computes one record's contribution to the
// location index: for every vertex label its stored embeddings touch,
// the occurrence count (embeddings containing at least one vertex of
// the label) and the supporting TIDs. txn resolves a TID to its transaction graph. Records storing no
// embeddings return nil (they cannot be located without re-matching).
func invertEmbeddings(p *pattern.Pattern, rec int, txn func(tid int) (*graph.Graph, error)) (map[string]*LocationHit, error) {
	if p.NumEmbeddings() == 0 {
		return nil, nil
	}
	out := make(map[string]*LocationHit)
	var embLabels []string // distinct labels within one embedding
	for j, tid := range p.TIDs.All() {
		if len(p.Embs[j]) == 0 {
			continue
		}
		g, err := txn(tid)
		if err != nil {
			return nil, err
		}
		for _, emb := range p.Embs[j] {
			embLabels = embLabels[:0]
			for _, tv := range emb.Verts {
				if !g.HasVertex(tv) {
					return nil, fmt.Errorf("store: pattern %q embedding references missing vertex %d in transaction %d", p.Code, tv, tid)
				}
				label := g.Vertex(tv).Label
				seen := false
				for _, l := range embLabels {
					if l == label {
						seen = true
						break
					}
				}
				if !seen {
					embLabels = append(embLabels, label)
				}
			}
			for _, label := range embLabels {
				h := out[label]
				if h == nil {
					h = &LocationHit{Record: rec}
					out[label] = h
				}
				h.Occurrences++
				if h.TIDs.IsEmpty() || h.TIDs.Max() != tid {
					h.TIDs.Add(tid)
				}
			}
		}
	}
	return out, nil
}

// decodePattern rebuilds one pattern record. Per-TID lists written
// empty decode as nil slots inside a non-nil Embs, preserving the
// HasSeeds/HasEmbeddings semantics of the in-memory store.
func decodePattern(d *dec) *pattern.Pattern {
	p, flags, _ := decodePatternHead(d)
	if p == nil || flags&flagHasEmbs == 0 || d.err != nil {
		return p
	}
	// Each per-TID list costs at least its count byte, so a corrupt
	// column cannot make this allocation outgrow the record.
	n := p.TIDs.Len()
	if rem := len(d.buf) - d.off; n > rem {
		d.fail("store: corrupt record (%d embedding lists exceed %d remaining bytes)", n, rem)
		return nil
	}
	p.Embs = make([][]iso.DenseEmbedding, n)
	for i := range p.Embs {
		cnt := d.count()
		if d.err != nil {
			return nil
		}
		if cnt == 0 {
			continue
		}
		list := make([]iso.DenseEmbedding, cnt)
		for j := range list {
			nv := d.count()
			if d.err != nil {
				return nil
			}
			verts := make([]graph.VertexID, nv)
			for k := range verts {
				verts[k] = graph.VertexID(d.uvarint())
			}
			ne := d.count()
			if d.err != nil {
				return nil
			}
			edges := make([]graph.EdgeID, ne)
			for k := range edges {
				edges[k] = graph.EdgeID(d.uvarint())
			}
			list[j] = iso.DenseEmbedding{Verts: verts, Edges: edges}
		}
		p.Embs[i] = list
	}
	if flags&flagPartial != 0 {
		p.Partial, _ = decodeTIDColumn(d)
	}
	return p
}
