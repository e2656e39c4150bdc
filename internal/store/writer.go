package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"tnkd/internal/faultfs"
	"tnkd/internal/graph"
	"tnkd/internal/pattern"
)

// Writer streams one store file: header first, then the transaction
// set, then each mining level as it completes, then Close. The bytes
// go to a staging file, path+".tmp"; Close writes the one index and
// trailer, fsyncs, renames the staging file onto path and fsyncs the
// directory. Until Close returns, path holds whatever it held before
// (nothing, or an older store); a run that dies or Aborts leaves at
// most a stale ".tmp" beside it, never a torn store at path.
//
// Writer is not safe for concurrent use. The level-wise miners call
// it from the mining goroutine between levels.
type Writer struct {
	path   string // the published store; bytes go to path+".tmp" until Close
	fs     faultfs.FS
	f      faultfs.File
	bw     *bufio.Writer
	off    uint64
	meta   Meta
	txns   []span
	levels []levelInfo
	recs   []recInfo
	state  writerState

	// Location-index accumulation: WriteTransactions retains the
	// transaction graphs so WriteLevel can invert each record's
	// embeddings into per-label hits as it serialises them.
	locTxns  []*graph.Graph
	locHits  map[string][]LocationHit
	locNoEmb int
}

type writerState int

const (
	writerOpen writerState = iota
	writerClosed
	writerAborted
)

// Create starts a store that Close will publish at path: it creates
// (truncating) the staging file path+".tmp" and writes the format
// header there. An existing file at path is not touched. The caller
// must finish with Close (or Abort on failure paths).
func Create(path string, meta Meta) (*Writer, error) {
	return CreateFS(faultfs.OS{}, path, meta)
}

// CreateFS is Create on an explicit filesystem layer. The fault-
// injection tests and the ingest daemon thread a faultfs.Injector
// through here so every durability step of the writer — buffered
// writes, the sync, the publishing rename and directory sync — can
// be torn or killed at a chosen operation.
func CreateFS(fsys faultfs.FS, path string, meta Meta) (*Writer, error) {
	f, err := fsys.Create(tmpPath(path))
	if err != nil {
		return nil, fmt.Errorf("store: create: %w", err)
	}
	if meta.CreatedUnix == 0 {
		meta.CreatedUnix = time.Now().Unix()
	}
	w := &Writer{path: path, fs: fsys, f: f, bw: bufio.NewWriterSize(f, 1<<16), meta: meta}
	var hdr [headerSize]byte
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint32(hdr[len(magic):], FormatVersion)
	if err := w.write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// Path returns the file path the writer was created with: where
// Close publishes the store.
func (w *Writer) Path() string { return w.path }

// tmpPath is the staging file a store is written to before Close
// renames it onto path.
func tmpPath(path string) string { return path + ".tmp" }

func (w *Writer) write(b []byte) error {
	n, err := w.bw.Write(b)
	w.off += uint64(n)
	if err != nil {
		return fmt.Errorf("store: write %s: %w", w.path, err)
	}
	return nil
}

// WriteTransactions persists the transaction set the pattern records'
// TIDs and embeddings refer to. It must be called exactly once,
// before any WriteLevel.
func (w *Writer) WriteTransactions(txns []*graph.Graph) error {
	if w.state != writerOpen {
		return fmt.Errorf("store: WriteTransactions on closed writer")
	}
	if w.txns != nil {
		return fmt.Errorf("store: WriteTransactions called twice")
	}
	if len(w.recs) > 0 {
		return fmt.Errorf("store: WriteTransactions after WriteLevel")
	}
	// Retained for the location-index inversion in WriteLevel; the
	// caller already holds these graphs, so this is a slice of
	// pointers, not a copy.
	w.locTxns = txns
	w.locHits = make(map[string][]LocationHit)
	w.txns = make([]span, 0, len(txns))
	var e enc
	for _, t := range txns {
		e.buf = e.buf[:0]
		encodeGraph(&e, t)
		w.txns = append(w.txns, span{off: w.off, len: uint64(len(e.buf))})
		if err := w.write(e.buf); err != nil {
			return err
		}
	}
	return nil
}

// WriteLevel appends one completed mining level: every pattern must
// have exactly `edges` edges, ascending TID lists, and embedding
// lists (when present) aligned with the TID list. Levels are expected
// in increasing edge order, each at most once — the layout invariant
// that makes the level directory a contiguous partition of the
// record space. Every stored embedding must reference vertices of its
// transaction: the location index is built from them.
func (w *Writer) WriteLevel(edges int, pats []pattern.Pattern) error {
	if w.state != writerOpen {
		return fmt.Errorf("store: WriteLevel on closed writer")
	}
	if w.txns == nil {
		return fmt.Errorf("store: WriteLevel before WriteTransactions")
	}
	if n := len(w.levels); n > 0 && w.levels[n-1].edges >= edges {
		return fmt.Errorf("store: WriteLevel(%d) after level %d (levels must ascend)", edges, w.levels[n-1].edges)
	}
	lv := levelInfo{edges: edges, start: len(w.recs)}
	var e enc
	for i := range pats {
		p := &pats[i]
		if err := validatePattern(p, edges, len(w.txns)); err != nil {
			return err
		}
		if err := w.indexLocations(p, len(w.recs)); err != nil {
			return err
		}
		e.buf = e.buf[:0]
		flags := encodePattern(&e, p)
		w.recs = append(w.recs, recInfo{
			span:       span{off: w.off, len: uint64(len(e.buf))},
			code:       p.Code,
			support:    uint32(p.Support),
			embeddings: uint32(p.NumEmbeddings()),
			flags:      flags,
		})
		if err := w.write(e.buf); err != nil {
			return err
		}
		lv.count++
	}
	w.levels = append(w.levels, lv)
	return nil
}

// indexLocations folds record rec's embeddings into the location
// index being accumulated for the footer section. Appending per
// record keeps each label's hit list in ascending record order. A
// record whose embeddings reference a vertex missing from their
// transaction cannot be located and fails the write as malformed
// input.
func (w *Writer) indexLocations(p *pattern.Pattern, rec int) error {
	perLabel, err := invertEmbeddings(p, rec, func(tid int) (*graph.Graph, error) {
		return w.locTxns[tid], nil // validatePattern already bounded the TIDs
	})
	if err != nil {
		return err
	}
	if perLabel == nil {
		w.locNoEmb++
		return nil
	}
	for label, h := range perLabel {
		w.locHits[label] = append(w.locHits[label], *h)
	}
	return nil
}

// patternFlags computes the flag bits of a record.
func patternFlags(p *pattern.Pattern) byte {
	var flags byte
	if p.Offsets != nil {
		flags |= flagHasEmbs
	}
	if p.Overflowed {
		flags |= flagOverflowed
	}
	if p.Offsets != nil && p.Partial.Len() > 0 {
		flags |= flagPartial
	}
	return flags
}

// validatePattern enforces the record invariants the codec and the
// readers rely on, so a malformed pattern fails loudly at write time
// instead of decoding wrong later.
func validatePattern(p *pattern.Pattern, edges, numTxns int) error {
	if p.Graph == nil {
		return fmt.Errorf("store: pattern %q has no graph", p.Code)
	}
	if p.Graph.NumEdges() != edges {
		return fmt.Errorf("store: pattern %q has %d edges in a %d-edge level", p.Code, p.Graph.NumEdges(), edges)
	}
	if max := p.TIDs.Max(); max >= numTxns {
		return fmt.Errorf("store: pattern %q TID %d beyond %d transactions", p.Code, max, numTxns)
	}
	if p.Offsets != nil {
		if len(p.Offsets) != p.TIDs.Len()+1 {
			return fmt.Errorf("store: pattern %q has %d embedding lists for %d TIDs", p.Code, len(p.Offsets)-1, p.TIDs.Len())
		}
		if p.Embs.NV != p.Graph.NumVertices() || p.Embs.NE != p.Graph.NumEdges() {
			return fmt.Errorf("store: pattern %q: %w (%d+%d IDs per embedding for %d+%d)",
				p.Code, ErrEmbeddingWidth, p.Embs.NV, p.Embs.NE, p.Graph.NumVertices(), p.Graph.NumEdges())
		}
		if p.Offsets[0] != 0 || int(p.Offsets[len(p.Offsets)-1]) != p.Embs.Len() || !slices.IsSorted(p.Offsets) {
			return fmt.Errorf("store: pattern %q has a malformed offset column for %d embeddings", p.Code, p.Embs.Len())
		}
	}
	if p.Overflowed && p.Offsets != nil && p.Partial.Len() == 0 {
		return fmt.Errorf("store: pattern %q has overflowed lists but no partial TIDs", p.Code)
	}
	if p.Partial.Len() > 0 {
		if !p.Overflowed {
			return fmt.Errorf("store: pattern %q has partial TIDs but is not overflowed", p.Code)
		}
		if p.Offsets == nil {
			return fmt.Errorf("store: pattern %q has partial TIDs but no lists", p.Code)
		}
		if p.Partial.AndCard(p.TIDs) != p.Partial.Len() {
			return fmt.Errorf("store: pattern %q partial TIDs are not a subset of its TIDs", p.Code)
		}
	}
	return nil
}

// writeFooter appends the index and trailer — once, from Close, so
// the file holds no bytes that no index entry or trailer references.
func (w *Writer) writeFooter() error {
	idx := w.encodeIndex()
	idxOff := w.off
	if err := w.write(idx); err != nil {
		return err
	}
	var tr [trailerSize]byte
	binary.LittleEndian.PutUint64(tr[0:], idxOff)
	binary.LittleEndian.PutUint64(tr[8:], uint64(len(idx)))
	binary.LittleEndian.PutUint32(tr[16:], crc32.ChecksumIEEE(idx))
	copy(tr[20:], endMagic)
	return w.write(tr[:])
}

// Close seals and publishes the store: it writes the footer, fsyncs
// and closes the staging file, renames it onto path and fsyncs the
// directory. If any step up to the rename fails, Close aborts itself —
// the handle is released and the staging file removed, path left as
// it was — so callers need no cleanup of their own. If only the
// directory fsync fails, the store is already in place at path (the
// rename may not survive a power loss) and Close reports the error.
func (w *Writer) Close() error {
	if w.state != writerOpen {
		return fmt.Errorf("store: Close on closed writer")
	}
	if err := w.seal(); err != nil {
		w.Abort()
		return err
	}
	w.state = writerClosed
	if err := w.fs.SyncDir(filepath.Dir(w.path)); err != nil {
		return fmt.Errorf("store: sync directory of %s: %w", w.path, err)
	}
	return nil
}

// seal makes the staging file a complete store and renames it onto
// path.
func (w *Writer) seal() error {
	if w.txns == nil {
		// An empty but valid store still needs a transaction section.
		w.txns = []span{}
	}
	if err := w.writeFooter(); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("store: flush %s: %w", w.path, err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: sync %s: %w", w.path, err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", w.path, err)
	}
	if err := w.fs.Rename(tmpPath(w.path), w.path); err != nil {
		return fmt.Errorf("store: publish %s: %w", w.path, err)
	}
	return nil
}

// Abort closes and removes the staging file of an unfinished store (a
// failed Close calls it automatically); path is never touched. Never
// call it after a successful Close.
func (w *Writer) Abort() error {
	if w.state == writerAborted {
		return nil
	}
	w.state = writerAborted
	w.f.Close()
	if err := w.fs.Remove(tmpPath(w.path)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: abort %s: %w", w.path, err)
	}
	return nil
}

// encodeIndex serialises the footer index block: meta JSON,
// transaction spans, level directory with per-record index entries,
// and the location index.
func (w *Writer) encodeIndex() []byte {
	var e enc
	metaJSON, err := json.Marshal(w.meta)
	if err != nil {
		// Meta is a plain struct of marshalable fields; this cannot
		// fail for any constructible value.
		metaJSON = []byte("{}")
	}
	e.str(string(metaJSON))
	e.uvarint(uint64(len(w.txns)))
	for _, s := range w.txns {
		e.uvarint(s.off)
		e.uvarint(s.len)
	}
	e.uvarint(uint64(len(w.levels)))
	for _, lv := range w.levels {
		e.uvarint(uint64(lv.edges))
		e.uvarint(uint64(lv.count))
		for _, r := range w.recs[lv.start : lv.start+lv.count] {
			e.uvarint(r.off)
			e.uvarint(r.len)
			e.str(r.code)
			e.uvarint(uint64(r.support))
			e.uvarint(uint64(r.embeddings))
			e.byte(r.flags)
		}
	}
	encodeLocIndex(&e, w.locHits, w.locNoEmb)
	return e.buf
}

// sortedLevelEdges returns the distinct edge counts of a
// pattern-per-level map in ascending order — the order WriteLevel
// requires. Shared by the post-hoc store writers (Algorithm 1 unions
// arrive grouped, not streamed).
func sortedLevelEdges[T any](byEdges map[int][]T) []int {
	out := make([]int, 0, len(byEdges))
	for e := range byEdges {
		out = append(out, e)
	}
	sort.Ints(out)
	return out
}

// WriteLevels writes a whole pattern set grouped by edge count in
// ascending level order — the non-streaming path for runs that union
// results after mining (core.MineStructural).
func (w *Writer) WriteLevels(byEdges map[int][]pattern.Pattern) error {
	for _, edges := range sortedLevelEdges(byEdges) {
		if err := w.WriteLevel(edges, byEdges[edges]); err != nil {
			return err
		}
	}
	return nil
}

// CheckWritable verifies that path can be created for writing,
// without disturbing anything already there: an existing file is
// opened (not truncated) and left intact, a probe file is created
// and removed. CLIs run it at flag time so a mistyped -store path
// fails in milliseconds with a clear error instead of surfacing
// after minutes of mining. A pre-existing store survives until the
// real write replaces it: Writer stages in path+".tmp" and renames
// only on a successful Close.
func CheckWritable(path string) error {
	_, statErr := os.Stat(path)
	existed := statErr == nil
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: create: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: create: %w", err)
	}
	if !existed {
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("store: create: %w", err)
		}
	}
	return nil
}
