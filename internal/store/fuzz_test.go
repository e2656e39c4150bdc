package store

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"tnkd/internal/graph"
	"tnkd/internal/pattern"
)

// frameStore wraps fuzzed body and index bytes in a valid header and
// a trailer whose CRC matches the index, so mutations get past the
// framing checks and reach parseIndex, decodeLocIndex and the record
// decoders.
func frameStore(body, index []byte) []byte {
	out := make([]byte, 0, headerSize+len(body)+len(index)+trailerSize)
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, FormatVersion)
	out = append(out, body...)
	out = append(out, index...)
	out = binary.LittleEndian.AppendUint64(out, uint64(headerSize+len(body)))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(index)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(index))
	return append(out, endMagic...)
}

// splitStore is frameStore's inverse on a closed store file: the body
// between header and index, and the index itself.
func splitStore(data []byte) (body, index []byte) {
	tr := data[len(data)-trailerSize:]
	off := binary.LittleEndian.Uint64(tr[0:])
	n := binary.LittleEndian.Uint64(tr[8:])
	return data[headerSize:off], data[off : off+n]
}

// exerciseReader decodes everything an opened store holds: every
// transaction and record (full and lite), the stats pass, the pattern
// dump and the record references of the location index. Decode
// errors are fine; panics are not.
func exerciseReader(r *Reader) {
	for tid := 0; tid < r.NumTransactions(); tid++ {
		r.Transaction(tid) //nolint:errcheck
	}
	for i := 0; i < r.NumPatterns(); i++ {
		r.Info(i)
		r.Pattern(i)     //nolint:errcheck
		r.PatternLite(i) //nolint:errcheck
	}
	_ = ReadStats(r).String()
	DumpPatterns(r) //nolint:errcheck
	byLabel, _, _ := r.LocationIndex()
	for _, hits := range byLabel {
		for _, h := range hits {
			r.Info(h.Record)
		}
	}
}

// FuzzStoreOpen feeds framed (body, index) bytes to Open and decodes
// whatever opens. Corrupt input must fail with an error — never
// panic, and never allocate out of proportion to the input (a
// corrupt length must not size an allocation). The checked-in corpus
// under testdata/fuzz/FuzzStoreOpen is split from small mined stores.
func FuzzStoreOpen(f *testing.F) {
	// In-process seeds: random stores covering every record shape.
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		txns := []*graph.Graph{randGraph(rng, "t0"), randGraph(rng, "t1"), randGraph(rng, "t2")}
		levels := map[int][]pattern.Pattern{
			1: {randPattern(rng, 1, txns), randPattern(rng, 1, txns)},
			2: {randPattern(rng, 2, txns)},
		}
		path := filepath.Join(f.TempDir(), "seed.tnd")
		w, err := Create(path, Meta{Name: "seed", Kind: "fsg"})
		if err != nil {
			f.Fatal(err)
		}
		if err := w.WriteTransactions(txns); err != nil {
			f.Fatal(err)
		}
		if err := w.WriteLevels(levels); err != nil {
			f.Fatal(err)
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		body, index := splitStore(data)
		f.Add(body, index)
	}

	path := filepath.Join(f.TempDir(), "fuzz.tnd")
	f.Fuzz(func(t *testing.T, body, index []byte) {
		data := frameStore(body, index)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := Open(path)
		if err != nil {
			return
		}
		exerciseReader(r)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		// Decoded graphs, TID sets, embedding lists and the dump text
		// cost a bounded multiple of the bytes that encode them.
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+1024*len(data)); alloc > bound {
			t.Fatalf("decoding %d input bytes allocated %d bytes (bound %d)", len(data), alloc, bound)
		}
	})
}
