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
//   - Streaming writes, published whole. A mining run hands each
//     Apriori level to Writer as it completes (fsg.Options.Checkpoint)
//     and Writer appends the level's records to a staging file,
//     path+".tmp". Close writes the one index and trailer, fsyncs and
//     renames the staging file onto path, so a store at path is always
//     complete: a run that dies leaves path as it was and at most a
//     stale staging file beside it. The file holds no bytes that no
//     index entry or trailer references.
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
//	index    meta JSON | transaction spans | level directory with
//	         per-record (offset, length, code, support, embeddings,
//	         flags) | location index
//	trailer  index offset (uint64) | index length (uint64) |
//	         index CRC-32 (uint32) | end magic "TNDSTEND"
//
// A pattern record holds the graph, its exact canonical code
// (iso.Code: equal code ⟺ isomorphic pattern), support, flags, a TID
// column (a kind byte, always 0, then a uvarint count and the
// delta-coded members — see encodeTIDColumn), the embedding lists
// and, for overflowed records, a column marking which per-TID lists
// are seeds (pattern.Pattern.Partial). Open refuses a record whose
// flags carry a bit this build does not know, or that announce
// overflowed lists without that column (ErrNoPartialColumn). The
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
	"errors"
	"fmt"
	"math"
	"slices"
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

	// Lineage. A store that succeeds a previous generation (every
	// ingest publish) records its parent chain here; a first generation leaves both zero. Meta is JSON in the
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

	// Window provenance. A store of a sliding window (ingest with
	// Options.Window) records which stretch of the source stream its
	// transactions cover; append-only and full-mine stores
	// leave all of these zero. Like the lineage fields, they read back
	// as zero values from older stores — no format-version bump.

	// WindowStart/WindowEnd bound the window as 1-based ordinals of
	// the slide unit, an ingest batch (the seed store is unit 1). Both
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
	// partitioning parameters of the run, so the store names the
	// inputs that reproduce it (tndstats prints them).

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
	// flagPartial announces the per-TID completeness column after the
	// embedding section. Bit 2 marked a bitset TID column, an
	// encoding this build no longer reads.
	flagPartial = 1 << 3 // per-TID partial-completeness column present
	// flagsKnown is every bit a record may carry; Open refuses others.
	flagsKnown = flagHasEmbs | flagOverflowed | flagPartial
)

// ErrNoPartialColumn reports a record with overflowed embedding lists
// but no (or an empty) per-TID partial column: nothing says which of
// its lists are complete. No writer produces the shape; a store
// holding it is refused at Open and at record decode.
var ErrNoPartialColumn = errors.New("overflowed embedding lists without a partial column")

// ErrEmbeddingWidth reports a stored embedding whose vertex or edge
// count differs from its pattern's. Lists decode into one packed
// array whose row width is the pattern's, so such a record cannot be
// read; no writer produces it.
var ErrEmbeddingWidth = errors.New("embedding width differs from its pattern")

// seedsWithoutPartial reports whether flags announce overflowed
// lists without the partial column that says which are seeds.
func seedsWithoutPartial(flags byte) bool {
	const seeds = flagHasEmbs | flagOverflowed
	return flags&seeds == seeds && flags&flagPartial == 0
}

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

// ids reads one width-prefixed ID run of an embedding and appends it
// to dst. The width must be want, the pattern's vertex or edge count
// (ErrEmbeddingWidth otherwise), and every ID must fit in an int32,
// checked before narrowing.
func (d *dec) ids(dst []int32, want int, what string) []int32 {
	if w := d.uvarint(); d.err == nil && w != uint64(want) {
		d.fail("store: corrupt record: %w (%d %s for a pattern with %d)", ErrEmbeddingWidth, w, what, want)
	}
	for range want {
		v := d.uvarint()
		if d.err != nil {
			break
		}
		if v > math.MaxInt32 {
			d.fail("store: corrupt record (embedding ID %d above %d)", v, math.MaxInt32)
			break
		}
		dst = append(dst, int32(v))
	}
	return dst
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

// tidColList is the one TID column encoding: the kind byte opening
// every column, then a uvarint count and the delta-coded uvarint
// members. The kind byte keeps the column self-describing; any other
// kind fails decode.
const tidColList = 0

// encodeTIDColumn serialises one TID column as a delta list.
func encodeTIDColumn(e *enc, s pattern.TIDSet) {
	e.byte(tidColList)
	e.uvarint(uint64(s.Len()))
	prev := 0
	for tid := range s.Values() {
		e.uvarint(uint64(tid - prev))
		prev = tid
	}
}

// maxTID is the largest TID a pattern.TIDSet represents.
const maxTID = math.MaxUint32

// decodeTIDColumn rebuilds one TID column.
func decodeTIDColumn(d *dec) pattern.TIDSet {
	var s pattern.TIDSet
	if kind := d.byte(); d.err == nil && kind != tidColList {
		d.fail("store: unknown TID column encoding %d", kind)
		return s
	}
	n := d.count()
	prev := 0
	for i := 0; i < n && d.err == nil; i++ {
		// Members ascend strictly from a first delta off 0, and must
		// stay representable.
		delta := d.uvarint()
		if d.err == nil && (i > 0 && delta == 0 || delta > maxTID-uint64(prev)) {
			d.fail("store: corrupt TID column (delta %d after TID %d)", delta, prev)
			break
		}
		prev += int(delta)
		s.Add(prev)
	}
	return s
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
	e.byte(flags)
	encodeTIDColumn(e, p.TIDs)
	encodeEmbSection(e, p)
	if flags&flagPartial != 0 {
		encodeTIDColumn(e, p.Partial)
	}
	return flags
}

func encodeEmbSection(e *enc, p *pattern.Pattern) {
	if p.Offsets == nil {
		return
	}
	for pi := range p.TIDs.Len() {
		list := p.EmbsAt(pi)
		e.uvarint(uint64(list.Len()))
		for i := range list.Len() {
			emb := list.At(i)
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
func decodePatternHead(d *dec) (*pattern.Pattern, byte) {
	p := &pattern.Pattern{Graph: decodeGraph(d)}
	p.Code = d.str()
	p.Support = int(d.uvarint())
	flags := d.byte()
	if d.err != nil {
		return nil, 0
	}
	p.Overflowed = flags&flagOverflowed != 0
	p.TIDs = decodeTIDColumn(d)
	return p, flags
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
			tids := decodeTIDColumn(d)
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
		list := p.EmbsAt(j)
		if list.Len() == 0 {
			continue
		}
		g, err := txn(tid)
		if err != nil {
			return nil, err
		}
		for i := range list.Len() {
			embLabels = embLabels[:0]
			for _, tv := range list.At(i).Verts {
				if !g.HasVertex(graph.VertexID(tv)) {
					return nil, fmt.Errorf("store: pattern %q embedding references missing vertex %d in transaction %d", p.Code, tv, tid)
				}
				label := g.Vertex(graph.VertexID(tv)).Label
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

// decodePattern rebuilds one pattern record. The embedding section
// decodes straight into the pattern's packed list and offset column;
// a record announcing lists keeps a non-nil Offsets even when every
// list was written empty, so HasEmbeddings and CompleteAt read as
// they did before the write.
func decodePattern(d *dec) *pattern.Pattern {
	p, flags := decodePatternHead(d)
	if p == nil || flags&flagHasEmbs == 0 || d.err != nil {
		return p
	}
	if seedsWithoutPartial(flags) {
		d.fail("store: corrupt record: %w", ErrNoPartialColumn)
		return nil
	}
	// Each per-TID list costs at least its count byte, so a corrupt
	// column cannot make the offset column outgrow the record.
	n := p.TIDs.Len()
	if rem := len(d.buf) - d.off; n > rem {
		d.fail("store: corrupt record (%d embedding lists exceed %d remaining bytes)", n, rem)
		return nil
	}
	embs := iso.NewEmbeddingList(p.Graph)
	stride := embs.Stride()
	p.Offsets = make([]int32, 1, n+1)
	for range n {
		cnt := d.count()
		if d.err != nil {
			return nil
		}
		// Each embedding costs at least its two width bytes and one
		// byte per ID, so the flat array is grown only as far as the
		// record's remaining bytes could fill.
		if rem := len(d.buf) - d.off; cnt > rem/(stride+2) {
			d.fail("store: corrupt record (%d embeddings of %d IDs exceed %d remaining bytes)", cnt, stride, rem)
			return nil
		}
		embs.IDs = slices.Grow(embs.IDs, cnt*stride)
		for range cnt {
			embs.IDs = d.ids(embs.IDs, embs.NV, "vertices")
			embs.IDs = d.ids(embs.IDs, embs.NE, "edges")
			if d.err != nil {
				return nil
			}
		}
		p.Offsets = append(p.Offsets, int32(embs.Len()))
	}
	p.Embs = embs
	if flags&flagPartial != 0 {
		p.Partial = decodeTIDColumn(d)
		if d.err == nil && p.Partial.Len() == 0 {
			d.fail("store: corrupt record: %w", ErrNoPartialColumn)
			return nil
		}
	}
	return p
}
