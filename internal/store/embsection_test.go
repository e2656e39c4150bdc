package store

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"tnkd/internal/iso"
	"tnkd/internal/pattern"
)

// embeddedEdgePattern is edgePattern over TID 0 with the one embedding
// (0, 1; 0): its record ends with the embedding section
// 01 | 02 00 01 | 01 00 (list count, vertex run, edge run).
func embeddedEdgePattern() pattern.Pattern {
	p := edgePattern("emb", pattern.NewTIDSet(0))
	p.Embs = iso.EmbeddingList{NV: 2, NE: 1, IDs: []int32{0, 1, 0}}
	p.Offsets = []int32{0, 1}
	return p
}

// withEmbSection encodes embeddedEdgePattern with its embedding
// section replaced by section.
func withEmbSection(t *testing.T, section []byte) []byte {
	t.Helper()
	p := embeddedEdgePattern()
	var e enc
	encodePattern(&e, &p)
	tail := []byte{1, 2, 0, 1, 1, 0}
	if !strings.HasSuffix(string(e.buf), string(tail)) {
		t.Fatalf("record %x does not end with the expected embedding section", e.buf)
	}
	return append(e.buf[:len(e.buf)-len(tail):len(e.buf)-len(tail)], section...)
}

// TestEmbSectionRoundTrip: the unmodified section decodes into the
// packed list and offset column it was written from.
func TestEmbSectionRoundTrip(t *testing.T) {
	want := embeddedEdgePattern()
	d := &dec{buf: withEmbSection(t, []byte{1, 2, 0, 1, 1, 0})}
	got := decodePattern(d)
	if err := d.done(); err != nil {
		t.Fatal(err)
	}
	samePattern(t, &want, got)
}

// TestEmbSectionRefusals: the decoder refuses an embedding whose
// vertex or edge run is not its pattern's width (ErrEmbeddingWidth),
// an ID that does not fit in an int32, and a list count whose rows
// could not fit in the record's remaining bytes — before growing the
// packed array for them.
func TestEmbSectionRefusals(t *testing.T) {
	huge := binary.AppendUvarint(nil, math.MaxInt32+1)
	for _, tc := range []struct {
		name    string
		section []byte
		want    error
		msg     string
	}{
		{"wide vertex run", []byte{1, 3, 0, 1, 1, 1, 0}, ErrEmbeddingWidth, "3 vertices for a pattern with 2"},
		{"narrow edge run", []byte{1, 2, 0, 1, 0, 0, 0}, ErrEmbeddingWidth, "0 edges for a pattern with 1"},
		{"ID above int32", append(append([]byte{1, 2, 0}, huge...), 1, 0), nil, "embedding ID 2147483648 above 2147483647"},
		// Five rows of three IDs need at least 25 bytes; five remain.
		{"rows beyond record", []byte{5, 2, 0, 1, 1, 0}, nil, "5 embeddings of 3 IDs exceed 5 remaining bytes"},
	} {
		d := &dec{buf: withEmbSection(t, tc.section)}
		if p := decodePattern(d); p != nil {
			t.Fatalf("%s: decoded %+v", tc.name, p)
		}
		if tc.want != nil && !errors.Is(d.err, tc.want) {
			t.Fatalf("%s: err %v, want %v", tc.name, d.err, tc.want)
		}
		if d.err == nil || !strings.Contains(d.err.Error(), tc.msg) {
			t.Fatalf("%s: err %v, want it to say %q", tc.name, d.err, tc.msg)
		}
	}
}
