package ingest

import (
	"encoding/json"
	"fmt"

	"tnkd/internal/graph"
)

// Batch JSON is the spool file / POST /v1/ingest wire format: a named
// list of graph transactions in the same adjacency shape the serving
// layer emits (vertices {id,label}, edges {id,from,to,label}), so a
// client can round-trip graphs between the two daemons without a
// translation layer.

// VertexJSON is one transaction vertex.
type VertexJSON struct {
	ID    int    `json:"id"`
	Label string `json:"label"`
}

// EdgeJSON is one directed labeled transaction edge.
type EdgeJSON struct {
	ID    int    `json:"id"`
	From  int    `json:"from"`
	To    int    `json:"to"`
	Label string `json:"label"`
}

// GraphJSON is one transaction in adjacency form.
type GraphJSON struct {
	Name     string       `json:"name,omitempty"`
	Vertices []VertexJSON `json:"vertices"`
	Edges    []EdgeJSON   `json:"edges"`
}

// Batch is one ingest unit: the transactions one generation appends
// to the served window before the window is mined afresh.
type Batch struct {
	// Name, when set, names the spool file the batch lands under
	// (sanitised); unnamed POSTed batches get a timestamped name.
	Name string `json:"name,omitempty"`
	// Transactions are appended in listed order; their TIDs continue
	// the surviving window's transaction numbering.
	Transactions []GraphJSON `json:"transactions"`
}

// maxBatchValues caps the JSON values one batch may hold, counted as
// the objects, arrays and commas outside strings (an upper bound on
// every array element and object member). Decoding costs a few
// hundred bytes per value — a three-byte `{},` edge becomes an
// EdgeJSON and a graph edge — so without the cap a 64 MiB body of
// empty edges would make the daemon allocate about 12 GB. A batch of
// real transactions holds about five values per edge.
const maxBatchValues = 1 << 18

// DecodeBatch parses and validates batch JSON into graph
// transactions. Vertex IDs are remapped to densely assigned ones in
// listed order; edges must reference listed vertices. A batch of more
// than maxBatchValues JSON values is refused before anything is
// decoded.
func DecodeBatch(data []byte) (*Batch, []*graph.Graph, error) {
	if n := jsonValues(data); n > maxBatchValues {
		return nil, nil, fmt.Errorf("ingest: batch holds more than %d JSON values (counted %d); split it", maxBatchValues, n)
	}
	var b Batch
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, nil, fmt.Errorf("ingest: batch JSON: %w", err)
	}
	txns := make([]*graph.Graph, 0, len(b.Transactions))
	for i, gj := range b.Transactions {
		name := gj.Name
		if name == "" {
			name = fmt.Sprintf("txn/%d", i)
		}
		g := graph.New(name)
		ids := make(map[int]graph.VertexID, len(gj.Vertices))
		for _, v := range gj.Vertices {
			if _, dup := ids[v.ID]; dup {
				return nil, nil, fmt.Errorf("ingest: batch transaction %d: duplicate vertex id %d", i, v.ID)
			}
			ids[v.ID] = g.AddVertex(v.Label)
		}
		for _, e := range gj.Edges {
			from, ok := ids[e.From]
			if !ok {
				return nil, nil, fmt.Errorf("ingest: batch transaction %d: edge %d references unknown vertex %d", i, e.ID, e.From)
			}
			to, ok := ids[e.To]
			if !ok {
				return nil, nil, fmt.Errorf("ingest: batch transaction %d: edge %d references unknown vertex %d", i, e.ID, e.To)
			}
			g.AddEdge(from, to, e.Label)
		}
		if g.NumEdges() == 0 {
			return nil, nil, fmt.Errorf("ingest: batch transaction %d has no edges", i)
		}
		txns = append(txns, g)
	}
	return &b, txns, nil
}

// jsonValues counts the '{', '[' and ',' bytes of data that lie
// outside string literals. It allocates nothing; malformed input gets
// some count and is refused by the decoder that follows.
func jsonValues(data []byte) int {
	n := 0
	inString, escaped := false, false
	for _, c := range data {
		switch {
		case escaped:
			escaped = false
		case inString:
			switch c {
			case '\\':
				escaped = true
			case '"':
				inString = false
			}
		case c == '"':
			inString = true
		case c == '{' || c == '[' || c == ',':
			n++
		}
	}
	return n
}

// EncodeBatch renders transactions as batch JSON — the inverse of
// DecodeBatch, used by the arrival-stream generator and tests.
func EncodeBatch(name string, txns []*graph.Graph) ([]byte, error) {
	b := Batch{Name: name, Transactions: make([]GraphJSON, 0, len(txns))}
	for _, g := range txns {
		gj := GraphJSON{Name: g.Name, Vertices: []VertexJSON{}, Edges: []EdgeJSON{}}
		for _, v := range g.Vertices() {
			gj.Vertices = append(gj.Vertices, VertexJSON{ID: int(v), Label: g.Vertex(v).Label})
		}
		for _, e := range g.Edges() {
			ed := g.Edge(e)
			gj.Edges = append(gj.Edges, EdgeJSON{ID: int(e), From: int(ed.From), To: int(ed.To), Label: ed.Label})
		}
		b.Transactions = append(b.Transactions, gj)
	}
	return json.MarshalIndent(&b, "", " ")
}
