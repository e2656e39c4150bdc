package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"tnkd/internal/graph"
	"tnkd/internal/store"
)

// referenceLocations decodes one record and inverts its embeddings:
// for each vertex label they touch, the occurrence count (embeddings
// containing at least one vertex with the label) and the supporting
// TIDs. Returns nil for records with no stored lists. It shares no
// code with the store writer's inversion, so it serves as the
// independent oracle for the persisted location index.
func referenceLocations(m Mount, i int) (map[string]*LocationPatternJSON, error) {
	if m.Reader.Info(i).Embeddings == 0 {
		return nil, nil
	}
	p, err := m.Reader.Pattern(i)
	if err != nil {
		return nil, err
	}
	info := m.Reader.Info(i)
	out := make(map[string]*LocationPatternJSON)
	var embLabels []string // distinct labels within one embedding
	for j, tid := range p.TIDs.All() {
		list := p.EmbsAt(j)
		if list.Len() == 0 {
			continue
		}
		txn, err := m.Reader.Transaction(tid)
		if err != nil {
			return nil, err
		}
		for k := range list.Len() {
			embLabels = embLabels[:0]
			for _, id := range list.At(k).Verts {
				tv := graph.VertexID(id)
				if !txn.HasVertex(tv) {
					return nil, fmt.Errorf("corrupt store: %s record %d references missing vertex %d in %s",
						m.Name, i, tv, txn.Name)
				}
				label := txn.Vertex(tv).Label
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
					h = &LocationPatternJSON{
						Store: m.Name, Index: i, Code: info.Code,
						Edges: info.Edges, Support: info.Support,
					}
					out[label] = h
				}
				h.Occurrences++
				if len(h.TIDs) == 0 || h.TIDs[len(h.TIDs)-1] != tid {
					h.TIDs = append(h.TIDs, tid)
				}
			}
		}
	}
	return out, nil
}

// TestLocationsMatchReference serves the mined fixture twice — once
// from the persisted location index, once from an index built by
// referenceLocations over every record — and requires byte-identical
// /v1/locations bodies for every label of the fixture.
func TestLocationsMatchReference(t *testing.T) {
	fx := newMinedFixture(t)
	r, err := store.Open(fx.path)
	if err != nil {
		t.Fatal(err)
	}
	// Same mount name so response bodies can be compared bytewise.
	ref := New([]Mount{{Name: "mined", Reader: r}}, Options{Parallelism: 4})
	t.Cleanup(func() { ref.Close() }) //nolint:errcheck
	e := ref.cur.entries[0]
	e.loc.once.Do(func() {
		e.loc.byLabel = make(map[string][]LocationPatternJSON)
		for i := 0; i < r.NumPatterns(); i++ {
			perLabel, err := referenceLocations(e.m, i)
			if err != nil {
				t.Fatal(err)
			}
			if perLabel == nil {
				e.loc.noEmb++
				continue
			}
			for label, h := range perLabel {
				e.loc.byLabel[label] = append(e.loc.byLabel[label], *h)
			}
		}
	})
	refTS := httptest.NewServer(ref.Handler())
	t.Cleanup(refTS.Close)

	labels := map[string]bool{}
	for _, txn := range fx.txns {
		for v := range graph.VertexID(txn.NumVertices()) {
			labels[txn.Vertex(v).Label] = true
		}
	}
	labels["no-such-place"] = true
	get := func(ts *httptest.Server, label string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/locations/" + url.PathEscape(label) + "/patterns")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close() //nolint:errcheck
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("label %q: status %d: %s", label, resp.StatusCode, body)
		}
		return body
	}
	located := 0
	for label := range labels {
		got, want := get(fx.ts, label), get(refTS, label)
		if !bytes.Equal(got, want) {
			t.Fatalf("label %q: persisted and reference responses diverge:\npersisted: %s\nreference: %s", label, got, want)
		}
		if len(e.loc.byLabel[label]) > 0 {
			located++
		}
	}
	if located == 0 {
		t.Fatal("no label of the fixture locates any pattern")
	}
}
