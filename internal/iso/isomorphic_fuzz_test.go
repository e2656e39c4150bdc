package iso

import (
	"testing"

	"tnkd/internal/graph"
)

// decodeFuzzGraph reads one small labelled directed multigraph from
// data at pos (vertex labels a/b, edge labels x/y, self-loops and
// parallel edges allowed) and returns it with the position after it.
// Two labels per alphabet keep collisions — and so isomorphic pairs
// that are not literal copies — common. Missing bytes read as zero.
//
//	data[pos]        vertex count-1 (mod 6, low 3 bits), edge count (rest, mod 10)
//	next nv bytes    vertex labels
//	then per edge    from, to, label
func decodeFuzzGraph(data []byte, pos int) (*graph.Graph, int) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	nv := (at(pos)&7)%6 + 1
	ne := (at(pos) >> 3) % 10
	pos++
	g := graph.New("fuzz")
	for i := 0; i < nv; i++ {
		g.AddVertex([]string{"a", "b"}[at(pos)%2])
		pos++
	}
	for i := 0; i < ne; i++ {
		g.AddEdge(graph.VertexID(at(pos)%nv), graph.VertexID(at(pos+1)%nv), []string{"x", "y"}[at(pos+2)%2])
		pos += 3
	}
	return g, pos
}

// FuzzCodeIsomorphic is the differential target of the canonical
// labeler against the matcher: Code(a) == Code(b) exactly when
// Isomorphic(a, b). The first byte's low bit makes b a vertex-permuted
// copy of a (edges re-added in reverse order, permutation rotated by
// the byte's remaining bits), so the equal side is reached as often as
// the unequal one; otherwise b is decoded from the bytes after a. The
// checked-in corpus under testdata/fuzz/FuzzCodeIsomorphic covers a
// permuted copy, two literal-distinct isomorphic graphs, a
// same-degree-sequence non-isomorphic pair and a self-loop mismatch.
func FuzzCodeIsomorphic(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		a, pos := decodeFuzzGraph(data, 1)
		var b *graph.Graph
		if data[0]&1 == 1 {
			nv := a.NumVertices()
			perm := make([]graph.VertexID, nv)
			for i := range perm {
				perm[i] = graph.VertexID((nv - 1 - i + int(data[0]>>1)) % nv)
			}
			b, _ = permuted(a, Extension{}, perm)
		} else {
			b, _ = decodeFuzzGraph(data, pos)
		}
		eq, isoEq := Code(a) == Code(b), Isomorphic(a, b)
		if eq != isoEq {
			t.Fatalf("equal codes %v, Isomorphic %v\n%s\n%s", eq, isoEq, a.Dump(), b.Dump())
		}
		if data[0]&1 == 1 && !eq {
			t.Fatalf("vertex-permuted copy codes differently\n%s\n%s", a.Dump(), b.Dump())
		}
	})
}
