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
	"sort"
	"time"

	"tnkd/internal/faultfs"
	"tnkd/internal/graph"
	"tnkd/internal/pattern"
)

// Writer streams one store file: header first, then the transaction
// set, then each mining level as it completes, then Close. Every
// WriteTransactions/WriteLevel call ends with a freshly written
// footer and a flush, so completed checkpoints survive the writing
// process and remain recoverable (see Recover); Close seals the file
// so Open accepts it directly.
//
// Writer is not safe for concurrent use. The level-wise miners call
// it from the mining goroutine between levels, which is exactly the
// checkpoint cadence the format wants.
type Writer struct {
	path    string
	fs      faultfs.FS
	f       faultfs.File
	bw      *bufio.Writer
	off     uint64
	meta    Meta
	txns    []span
	levels  []levelInfo
	recs    []recInfo
	footers int
	state   writerState

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

// Create opens path for writing (truncating any existing file) and
// writes the format header. The caller must finish with Close (or
// Abort on failure paths).
func Create(path string, meta Meta) (*Writer, error) {
	return CreateFS(faultfs.OS{}, path, meta)
}

// CreateFS is Create on an explicit filesystem layer. The fault-
// injection tests and the ingest daemon thread a faultfs.Injector
// through here so every durability step of the writer — buffered
// writes, footer flushes, the final sync — can be torn or killed at a
// chosen operation.
func CreateFS(fsys faultfs.FS, path string, meta Meta) (*Writer, error) {
	f, err := fsys.Create(path)
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

// Path returns the file path the writer was created with.
func (w *Writer) Path() string { return w.path }

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
	return w.writeFooter()
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
	return w.writeFooter()
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
	if p.Embs != nil {
		flags |= flagHasEmbs
	}
	if p.Overflowed {
		flags |= flagOverflowed
	}
	if p.Embs != nil && p.Partial.Len() > 0 {
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
	if p.Embs != nil && len(p.Embs) != p.TIDs.Len() {
		return fmt.Errorf("store: pattern %q has %d embedding lists for %d TIDs", p.Code, len(p.Embs), p.TIDs.Len())
	}
	if p.Partial.Len() > 0 {
		if !p.Overflowed {
			return fmt.Errorf("store: pattern %q has partial TIDs but is not overflowed", p.Code)
		}
		if p.Embs == nil {
			return fmt.Errorf("store: pattern %q has partial TIDs but no lists", p.Code)
		}
		if p.Partial.AndCard(p.TIDs) != p.Partial.Len() {
			return fmt.Errorf("store: pattern %q partial TIDs are not a subset of its TIDs", p.Code)
		}
	}
	return nil
}

// flush pushes buffered bytes to the OS so a completed level survives
// a later crash of the writing process.
func (w *Writer) flush() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("store: flush %s: %w", w.path, err)
	}
	return nil
}

// writeFooter appends the current index + trailer and flushes — the
// per-checkpoint durability step. Each WriteTransactions/WriteLevel
// call ends with a footer, so at every point between checkpoints the
// file ends with a valid trailer describing everything written so
// far: a run that dies mid-level leaves its completed levels
// recoverable (Recover scans back to the last intact footer).
// Superseded footers are dead bytes in the body that no index entry
// references — a copy of the then-current index per checkpoint, a
// few percent of file size in practice, the price of crash safety.
func (w *Writer) writeFooter() error {
	w.footers++
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
	if err := w.write(tr[:]); err != nil {
		return err
	}
	return w.flush()
}

// Close writes the final footer, syncs, and closes the file. On any
// failure Close aborts itself — the handle is released and the
// partial file removed — so callers need no cleanup of their own.
func (w *Writer) Close() error {
	if w.state != writerOpen {
		return fmt.Errorf("store: Close on closed writer")
	}
	if err := w.finish(); err != nil {
		w.Abort()
		return err
	}
	w.state = writerClosed
	return nil
}

func (w *Writer) finish() error {
	if w.txns == nil {
		// An empty but valid store still needs a transaction section.
		w.txns = []span{}
	}
	// Every Write* call already ended with a footer identical to the
	// one Close would write; only a store with no checkpoints at all
	// still needs its first.
	if w.footers == 0 {
		if err := w.writeFooter(); err != nil {
			return err
		}
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: sync %s: %w", w.path, err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", w.path, err)
	}
	return nil
}

// Abort closes and removes a partially written store (a failed Close
// calls it automatically); never call it after a successful Close.
func (w *Writer) Abort() error {
	if w.state == writerAborted {
		return nil
	}
	w.state = writerAborted
	w.f.Close()
	if err := w.fs.Remove(w.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
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
// after minutes of mining — and a pre-existing store survives until
// the real write actually replaces it.
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
