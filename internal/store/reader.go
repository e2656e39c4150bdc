package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"tnkd/internal/graph"
	"tnkd/internal/obs"
	"tnkd/internal/pattern"
)

// Reader lifecycle metrics on the process-wide registry: opens (and
// failures), whether each open mapped the body or fell back to pread,
// and how many readers are live right now.
var (
	readerOpens      = obs.Default.Counter("tnd_store_opens_total")
	readerOpenErrors = obs.Default.Counter("tnd_store_open_errors_total")
	readerMmaps      = obs.Default.Counter("tnd_store_mmap_total")
	readerPreads     = obs.Default.Counter("tnd_store_pread_fallback_total")
	readersOpen      = obs.Default.Gauge("tnd_store_readers_open")
)

// Reader serves random-access queries over one store file. Open
// verifies magic, version, trailer and index checksum, loads only the
// footer index (per-record offsets, codes, supports, level
// directory), and memory-maps the body when the platform allows it —
// pattern lookup by code is a map hit plus one record decode, and a
// multi-gigabyte store opens without reading its body.
//
// Reader is safe for concurrent use: record decodes read the
// immutable mapping (or pread), and the lazy transaction cache is
// lock-protected. Decoded transactions are shared between callers and
// must be treated as read-only (the graph label index is built for
// exactly that sharing).
type Reader struct {
	path    string
	f       *os.File
	data    []byte // nil when mmap is unavailable
	munmap  func() error
	size    int64
	meta    Meta
	txnSpan []span
	levels  []levelInfo
	recs    []recInfo
	byCode  map[string][]int
	loc     locIndex

	mu       sync.Mutex
	closed   bool
	txnCache []*graph.Graph
}

// opened records a successful Open in the lifecycle metrics.
func (r *Reader) opened() *Reader {
	readerOpens.Inc()
	readersOpen.Add(1)
	if r.data != nil {
		readerMmaps.Inc()
	} else {
		readerPreads.Inc()
	}
	return r
}

// Open validates and indexes a store file. A file that does not end
// in a trailer — a torn or truncated copy — is rejected ("missing end
// marker").
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		readerOpenErrors.Inc()
		return nil, fmt.Errorf("store: open: %w", err)
	}
	size, err := checkHeader(path, f)
	if err != nil {
		f.Close()
		readerOpenErrors.Inc()
		return nil, err
	}
	r, err := readerAt(path, f, size)
	if err != nil {
		f.Close()
		readerOpenErrors.Inc()
		return nil, err
	}
	return r.opened(), nil
}

// checkHeader validates magic and version, returning the file size.
func checkHeader(path string, f *os.File) (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("store: stat %s: %w", path, err)
	}
	size := st.Size()
	if size < int64(headerSize+trailerSize) {
		return 0, fmt.Errorf("store: %s: file too short (%d bytes) to be a store", path, size)
	}
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return 0, fmt.Errorf("store: read header of %s: %w", path, err)
	}
	if string(hdr[:len(magic)]) != magic {
		return 0, fmt.Errorf("store: %s: bad magic %q (want %q) — not a store file", path, hdr[:len(magic)], magic)
	}
	if v := binary.LittleEndian.Uint32(hdr[len(magic):]); v != FormatVersion {
		return 0, fmt.Errorf("store: %s: unsupported format version %d (this build reads only version %d; re-mine the store)",
			path, v, FormatVersion)
	}
	return size, nil
}

// readerAt builds a reader over the store whose trailer ends the
// file. All offsets are validated against the file size, wraparound
// included.
func readerAt(path string, f *os.File, fileSize int64) (*Reader, error) {
	var tr [trailerSize]byte
	if _, err := f.ReadAt(tr[:], fileSize-int64(trailerSize)); err != nil {
		return nil, fmt.Errorf("store: read trailer of %s: %w", path, err)
	}
	if string(tr[20:]) != endMagic {
		return nil, fmt.Errorf("store: %s: missing end marker — torn or truncated store", path)
	}
	idxOff := binary.LittleEndian.Uint64(tr[0:])
	idxLen := binary.LittleEndian.Uint64(tr[8:])
	idxCRC := binary.LittleEndian.Uint32(tr[16:])
	idxEnd := uint64(fileSize - int64(trailerSize))
	if idxOff < uint64(headerSize) || idxLen > idxEnd || idxOff != idxEnd-idxLen {
		return nil, fmt.Errorf("store: %s: corrupt trailer (index %d+%d, footer at %d)", path, idxOff, idxLen, fileSize)
	}
	idx := make([]byte, idxLen)
	if _, err := f.ReadAt(idx, int64(idxOff)); err != nil {
		return nil, fmt.Errorf("store: read index of %s: %w", path, err)
	}
	if crc := crc32.ChecksumIEEE(idx); crc != idxCRC {
		return nil, fmt.Errorf("store: %s: index checksum mismatch (file %08x, computed %08x) — corrupt store", path, idxCRC, crc)
	}
	r := &Reader{path: path, f: f, size: int64(idxOff)}
	if err := r.parseIndex(idx); err != nil {
		return nil, err
	}
	data, munmap, err := mmapFile(f, fileSize)
	if err != nil {
		return nil, fmt.Errorf("store: mmap %s: %w", path, err)
	}
	r.data, r.munmap = data, munmap
	r.txnCache = make([]*graph.Graph, len(r.txnSpan))
	r.byCode = make(map[string][]int, len(r.recs))
	for i := range r.recs {
		r.byCode[r.recs[i].code] = append(r.byCode[r.recs[i].code], i)
	}
	return r, nil
}

func (r *Reader) parseIndex(idx []byte) error {
	d := &dec{buf: idx}
	metaJSON := d.str()
	if d.err == nil {
		if err := json.Unmarshal([]byte(metaJSON), &r.meta); err != nil {
			return fmt.Errorf("store: %s: corrupt meta block: %w", r.path, err)
		}
	}
	numTxns := d.count()
	if d.err == nil && numTxns > 0 {
		r.txnSpan = make([]span, numTxns)
		for i := range r.txnSpan {
			r.txnSpan[i] = span{off: d.uvarint(), len: d.uvarint()}
		}
	}
	numLevels := d.count()
	for l := 0; l < numLevels && d.err == nil; l++ {
		lv := levelInfo{edges: int(d.uvarint()), start: len(r.recs), count: d.count()}
		for i := 0; i < lv.count && d.err == nil; i++ {
			r.recs = append(r.recs, recInfo{
				span:       span{off: d.uvarint(), len: d.uvarint()},
				code:       d.str(),
				support:    uint32(d.uvarint()),
				embeddings: uint32(d.uvarint()),
				flags:      d.byte(),
			})
			// A bit this build does not know changes how the record
			// decodes (bit 2 marked the retired bitset TID column), so
			// the store is refused whole rather than at first decode.
			flags := r.recs[len(r.recs)-1].flags
			if unknown := flags &^ flagsKnown; d.err == nil && unknown != 0 {
				return fmt.Errorf("store: %s: record %d has unknown flag bits %#02x (this build knows only %#02x; re-mine the store)",
					r.path, len(r.recs)-1, unknown, flagsKnown)
			}
			if d.err == nil && seedsWithoutPartial(flags) {
				return fmt.Errorf("store: %s: record %d: %w (re-mine the store)", r.path, len(r.recs)-1, ErrNoPartialColumn)
			}
		}
		r.levels = append(r.levels, lv)
	}
	if d.err == nil {
		r.loc = decodeLocIndex(d, len(r.recs), numTxns)
	}
	if err := d.done(); err != nil {
		return fmt.Errorf("store: %s: corrupt index: %w", r.path, err)
	}
	// Bounds checks are subtraction-form so an adversarial offset
	// cannot wrap uint64 past the limit. r.size is the index start:
	// every record the index describes precedes the index itself.
	limit := uint64(r.size)
	for i := range r.recs {
		if s := r.recs[i].span; s.len > limit || s.off > limit-s.len {
			return fmt.Errorf("store: %s: corrupt index (record beyond file end)", r.path)
		}
	}
	for i := range r.txnSpan {
		if s := r.txnSpan[i]; s.len > limit || s.off > limit-s.len {
			return fmt.Errorf("store: %s: corrupt index (transaction beyond file end)", r.path)
		}
	}
	return nil
}

// Close releases the mapping and the file handle. Close is
// idempotent so the readers-open gauge stays exact under defer +
// explicit double-close patterns.
func (r *Reader) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	readersOpen.Add(-1)
	var err error
	if r.munmap != nil {
		err = r.munmap()
		r.munmap = nil
	}
	if cerr := r.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Path returns the file path the reader was opened from.
func (r *Reader) Path() string { return r.path }

// Meta returns the run-level metadata persisted with the store.
func (r *Reader) Meta() Meta { return r.meta }

// NumTransactions returns the size of the stored transaction set.
func (r *Reader) NumTransactions() int { return len(r.txnSpan) }

// NumPatterns returns the total number of pattern records.
func (r *Reader) NumPatterns() int { return len(r.recs) }

// Levels lists the stored mining levels in ascending edge order.
func (r *Reader) Levels() []LevelInfo {
	out := make([]LevelInfo, len(r.levels))
	for i, lv := range r.levels {
		out[i] = LevelInfo{Edges: lv.edges, Patterns: lv.count}
	}
	return out
}

// LevelRange returns the global record index range [start, end) of
// the level with the given edge count (0, 0 when absent).
func (r *Reader) LevelRange(edges int) (start, end int) {
	for _, lv := range r.levels {
		if lv.edges == edges {
			return lv.start, lv.start + lv.count
		}
	}
	return 0, 0
}

// PatternInfo is the decoded footer-index entry of one record: the
// queryable facts that need no record decode.
type PatternInfo struct {
	// Index is the global record index (Pattern's argument).
	Index int
	// Edges is the record's level.
	Edges int
	// Code is the pattern's isomorphism-invariant code.
	Code string
	// Support is the stored support count.
	Support int
	// Embeddings is the number of stored embeddings across TIDs.
	Embeddings int
	// HasEmbeddings reports complete per-TID lists (not seeds).
	HasEmbeddings bool
	// Overflowed mirrors pattern.Pattern.Overflowed.
	Overflowed bool
}

// Info returns the index entry of record i without touching the
// file body.
func (r *Reader) Info(i int) PatternInfo {
	rec := &r.recs[i]
	return PatternInfo{
		Index:         i,
		Edges:         r.edgesOf(i),
		Code:          rec.code,
		Support:       int(rec.support),
		Embeddings:    int(rec.embeddings),
		HasEmbeddings: rec.flags&flagHasEmbs != 0 && rec.flags&flagOverflowed == 0,
		Overflowed:    rec.flags&flagOverflowed != 0,
	}
}

func (r *Reader) edgesOf(i int) int {
	for _, lv := range r.levels {
		if i >= lv.start && i < lv.start+lv.count {
			return lv.edges
		}
	}
	return 0
}

// LocationIndex returns the persisted per-location inverted index:
// hits per vertex label in ascending record order, plus the count of
// records that store no embeddings at all. Every store carries the
// index, so ok is always true. The returned map and hit slices are
// the reader's own: treat them as read-only.
func (r *Reader) LocationIndex() (byLabel map[string][]LocationHit, noEmb int, ok bool) {
	return r.loc.byLabel, r.loc.noEmb, true
}

// LocationIndexInfo describes the persisted location-index section
// for the stats report: label and hit counts, and its exact encoded
// size inside the footer index block. Present is always true; it
// keeps the stats JSON shape.
type LocationIndexInfo struct {
	Present bool `json:"present"`
	Labels  int  `json:"labels"`
	Hits    int  `json:"hits"`
	NoEmb   int  `json:"no_embedding_records"`
	Bytes   int  `json:"bytes"`
}

// LocationIndexStats summarises the persisted location index.
func (r *Reader) LocationIndexStats() LocationIndexInfo {
	info := LocationIndexInfo{Present: true, Labels: len(r.loc.byLabel), NoEmb: r.loc.noEmb, Bytes: r.loc.bytes}
	for _, hits := range r.loc.byLabel {
		info.Hits += len(hits)
	}
	return info
}

// FindByCode returns the global record indices whose code equals the
// given code, in store order. Codes are exact, so every returned
// record holds the same pattern (Algorithm 1 stores keep one record
// per repetition, so several hits are still normal).
func (r *Reader) FindByCode(code string) []int {
	return r.byCode[code]
}

// readSpan returns the bytes of one record: a sub-slice of the
// mapping when mapped (zero copy), a fresh pread buffer otherwise.
func (r *Reader) readSpan(s span) ([]byte, error) {
	if r.data != nil {
		return r.data[s.off : s.off+s.len : s.off+s.len], nil
	}
	buf := make([]byte, s.len)
	if _, err := r.f.ReadAt(buf, int64(s.off)); err != nil {
		return nil, fmt.Errorf("store: read %s: %w", r.path, err)
	}
	return buf, nil
}

// Pattern decodes record i in full: graph, code, TID list and
// embedding lists.
func (r *Reader) Pattern(i int) (*pattern.Pattern, error) {
	if i < 0 || i >= len(r.recs) {
		return nil, fmt.Errorf("store: pattern index %d out of range [0, %d)", i, len(r.recs))
	}
	buf, err := r.readSpan(r.recs[i].span)
	if err != nil {
		return nil, err
	}
	d := &dec{buf: buf}
	p := decodePattern(d)
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("store: %s record %d: %w", r.path, i, err)
	}
	return p, nil
}

// PatternLite decodes record i without its embedding section — the
// cheap path for support/TID queries, which pays the graph + TID
// decode only (embedding runs dominate a record's bytes). The
// returned Pattern has Embs nil regardless of what is stored; use
// Info(i).Embeddings for the stored count and Pattern(i) for the
// lists.
func (r *Reader) PatternLite(i int) (*pattern.Pattern, error) {
	if i < 0 || i >= len(r.recs) {
		return nil, fmt.Errorf("store: pattern index %d out of range [0, %d)", i, len(r.recs))
	}
	buf, err := r.readSpan(r.recs[i].span)
	if err != nil {
		return nil, err
	}
	d := &dec{buf: buf}
	p, _ := decodePatternHead(d)
	if d.err != nil {
		return nil, fmt.Errorf("store: %s record %d: %w", r.path, i, d.err)
	}
	return p, nil
}

// Transactions decodes the whole stored transaction set in TID order
// (through the cache, so graphs are shared with other callers and
// must be treated as read-only) — how the ingest daemon reads its
// window back after a start or restart.
func (r *Reader) Transactions() ([]*graph.Graph, error) {
	out := make([]*graph.Graph, len(r.txnSpan))
	for tid := range r.txnSpan {
		g, err := r.Transaction(tid)
		if err != nil {
			return nil, err
		}
		out[tid] = g
	}
	return out, nil
}

// LevelPatterns decodes every pattern record of the level with the
// given edge count, in store order, embeddings included. A level the
// store does not hold returns an empty slice.
func (r *Reader) LevelPatterns(edges int) ([]pattern.Pattern, error) {
	start, end := r.LevelRange(edges)
	out := make([]pattern.Pattern, 0, end-start)
	for i := start; i < end; i++ {
		p, err := r.Pattern(i)
		if err != nil {
			return nil, err
		}
		out = append(out, *p)
	}
	return out, nil
}

// AllLevelPatterns decodes every stored level, keyed by edge count.
func (r *Reader) AllLevelPatterns() (map[int][]pattern.Pattern, error) {
	out := make(map[int][]pattern.Pattern, len(r.levels))
	for _, lv := range r.levels {
		pats, err := r.LevelPatterns(lv.edges)
		if err != nil {
			return nil, err
		}
		out[lv.edges] = pats
	}
	return out, nil
}

// ValidateDeltaSource checks that an opened store can be the parent
// of a new generation, in one place so the flag-time pre-flight
// (cmd/tndtemporal), core.MineTemporal and the ingest seed cannot
// drift. Only transaction-set stores (fsg/temporal) have successors:
// an Algorithm 1 store is refused, because a different repetition
// count is a fresh mine, not a successor. Deeper validation (prefix
// match, window order) needs the run's own inputs and stays with the
// pipelines.
func (r *Reader) ValidateDeltaSource() error {
	if r.meta.Kind == "structural" {
		return fmt.Errorf("store: delta source %s is an Algorithm 1 store (one record per repetition) — structural stores have no successor; re-mine with more repetitions instead", r.path)
	}
	return nil
}

// VerifyPrefix checks that this store's transaction set is exactly
// the first NumTransactions entries of txns, byte-for-byte under the
// store codec. A -delta-from run records this store as its parent
// only when the new transaction list extends the stored one — a
// reordered partition, a different dataset or a mismatched filter
// all fail here with the first offending TID instead of recording a
// false lineage.
func (r *Reader) VerifyPrefix(txns []*graph.Graph) error {
	if len(txns) < len(r.txnSpan) {
		return fmt.Errorf("store: %s holds %d transactions but only %d were supplied — the new transaction set must extend the stored one", r.path, len(r.txnSpan), len(txns))
	}
	var e enc
	for tid := range r.txnSpan {
		stored, err := r.readSpan(r.txnSpan[tid])
		if err != nil {
			return err
		}
		e.buf = e.buf[:0]
		encodeGraph(&e, txns[tid])
		if !bytes.Equal(stored, e.buf) {
			return fmt.Errorf("store: %s transaction %d differs from the supplied transaction set — not a prefix, cannot delta-mine from this store", r.path, tid)
		}
	}
	return nil
}

// Transaction decodes transaction tid, caching the result; repeated
// occurrence queries over the same transactions decode each once.
// The returned graph is shared — treat it as read-only.
func (r *Reader) Transaction(tid int) (*graph.Graph, error) {
	if tid < 0 || tid >= len(r.txnSpan) {
		return nil, fmt.Errorf("store: transaction %d out of range [0, %d)", tid, len(r.txnSpan))
	}
	r.mu.Lock()
	if g := r.txnCache[tid]; g != nil {
		r.mu.Unlock()
		return g, nil
	}
	r.mu.Unlock()
	buf, err := r.readSpan(r.txnSpan[tid])
	if err != nil {
		return nil, err
	}
	d := &dec{buf: buf}
	g := decodeGraph(d)
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("store: %s transaction %d: %w", r.path, tid, err)
	}
	r.mu.Lock()
	if cached := r.txnCache[tid]; cached != nil {
		g = cached // a racing decode won; share one instance
	} else {
		r.txnCache[tid] = g
	}
	r.mu.Unlock()
	return g, nil
}
