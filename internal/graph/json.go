package graph

// VertexJSON is one vertex of a graph's JSON wire shape.
type VertexJSON struct {
	ID    int    `json:"id"`
	Label string `json:"label"`
}

// EdgeJSON is one directed labeled edge of a graph's JSON wire shape.
type EdgeJSON struct {
	ID    int    `json:"id"`
	From  int    `json:"from"`
	To    int    `json:"to"`
	Label string `json:"label"`
}

// JSON is a graph's wire shape, in adjacency form: the shape the
// serving layer emits pattern graphs in and the ingest daemon reads
// transactions in, so graphs round-trip between the two unchanged.
type JSON struct {
	Name     string       `json:"name,omitempty"`
	Vertices []VertexJSON `json:"vertices"`
	Edges    []EdgeJSON   `json:"edges"`
}

// JSON returns g's wire shape, vertices and edges in ID order.
func (g *Graph) JSON() JSON {
	out := JSON{Name: g.Name, Vertices: make([]VertexJSON, len(g.vertices)), Edges: make([]EdgeJSON, len(g.edges))}
	for i, v := range g.vertices {
		out.Vertices[i] = VertexJSON{ID: i, Label: v.Label}
	}
	for i, e := range g.edges {
		out.Edges[i] = EdgeJSON{ID: i, From: int(e.From), To: int(e.To), Label: e.Label}
	}
	return out
}
