package graph

import (
	"fmt"
	"strings"
)

// DegreeStats summarises the in- and out-degree distribution of a
// graph, matching the statistics reported in Section 3 of the paper
// (min/max/average out-degree 1/2373/12; in-degree 1/832/6).
type DegreeStats struct {
	MinOut, MaxOut int
	MinIn, MaxIn   int
	AvgOut, AvgIn  float64
}

// Degrees computes DegreeStats over the vertices of g. Vertices
// with zero out-degree are excluded from the out-degree minimum (the
// paper computes degree statistics over vertices that act as origins
// or destinations respectively), and symmetrically for in-degree.
func (g *Graph) Degrees() DegreeStats {
	s := DegreeStats{MinOut: -1, MinIn: -1}
	totalOut, totalIn := 0, 0
	nOut, nIn := 0, 0
	for v := range g.vertices {
		out, in := len(g.out[v]), len(g.in[v])
		if out > 0 {
			nOut++
			totalOut += out
			if s.MinOut == -1 || out < s.MinOut {
				s.MinOut = out
			}
			if out > s.MaxOut {
				s.MaxOut = out
			}
		}
		if in > 0 {
			nIn++
			totalIn += in
			if s.MinIn == -1 || in < s.MinIn {
				s.MinIn = in
			}
			if in > s.MaxIn {
				s.MaxIn = in
			}
		}
	}
	if nOut > 0 {
		s.AvgOut = float64(totalOut) / float64(nOut)
	}
	if nIn > 0 {
		s.AvgIn = float64(totalIn) / float64(nIn)
	}
	if s.MinOut == -1 {
		s.MinOut = 0
	}
	if s.MinIn == -1 {
		s.MinIn = 0
	}
	return s
}

// String renders the degree statistics in the form used by the paper.
func (d DegreeStats) String() string {
	return fmt.Sprintf("out-degree min/max/avg = %d/%d/%.0f, in-degree min/max/avg = %d/%d/%.0f",
		d.MinOut, d.MaxOut, d.AvgOut, d.MinIn, d.MaxIn, d.AvgIn)
}

// TransactionStats summarises a set of graph transactions the way
// Tables 2 and 3 of the paper do.
type TransactionStats struct {
	NumTransactions     int
	DistinctEdgeLabels  int
	DistinctVertexLabel int
	AvgEdges            float64
	AvgVertices         float64
	MaxEdges            int
	MaxVertices         int
	// SizeHistogram counts transactions whose edge count falls in
	// each bucket [Lo, Hi).
	SizeHistogram []SizeBucket
}

// SizeBucket is one row of the transaction-size histogram in Table 2.
type SizeBucket struct {
	Lo, Hi int
	Count  int
}

// DefaultSizeBuckets are the edge-count buckets used in Table 2 of
// the paper: 1-10, 10-100, 100-1000, 1000-2000, 2000-5000.
var DefaultSizeBuckets = []SizeBucket{
	{Lo: 1, Hi: 10}, {Lo: 10, Hi: 100}, {Lo: 100, Hi: 1000},
	{Lo: 1000, Hi: 2000}, {Lo: 2000, Hi: 5000},
}

// SummarizeTransactions computes Table 2/3-style statistics over a
// set of graph transactions.
func SummarizeTransactions(txns []*Graph) TransactionStats {
	st := TransactionStats{NumTransactions: len(txns)}
	edgeLabels := make(map[string]bool)
	vertexLabels := make(map[string]bool)
	totalE, totalV := 0, 0
	st.SizeHistogram = make([]SizeBucket, len(DefaultSizeBuckets))
	copy(st.SizeHistogram, DefaultSizeBuckets)
	for _, t := range txns {
		for _, l := range t.EdgeLabels() {
			edgeLabels[l] = true
		}
		for _, l := range t.VertexLabels() {
			vertexLabels[l] = true
		}
		e, v := t.NumEdges(), t.NumVertices()
		totalE += e
		totalV += v
		if e > st.MaxEdges {
			st.MaxEdges = e
		}
		if v > st.MaxVertices {
			st.MaxVertices = v
		}
		for i := range st.SizeHistogram {
			b := &st.SizeHistogram[i]
			if e >= b.Lo && e < b.Hi {
				b.Count++
			}
		}
	}
	st.DistinctEdgeLabels = len(edgeLabels)
	st.DistinctVertexLabel = len(vertexLabels)
	if len(txns) > 0 {
		st.AvgEdges = float64(totalE) / float64(len(txns))
		st.AvgVertices = float64(totalV) / float64(len(txns))
	}
	return st
}

// String renders the statistics in the row format of Table 2.
func (s TransactionStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Number of Input Transactions: %d\n", s.NumTransactions)
	fmt.Fprintf(&b, "Number of Distinct Edge Labels: %d\n", s.DistinctEdgeLabels)
	fmt.Fprintf(&b, "Number of Distinct Vertex Labels: %d\n", s.DistinctVertexLabel)
	fmt.Fprintf(&b, "Average Number of Edges In a Transaction: %.0f\n", s.AvgEdges)
	fmt.Fprintf(&b, "Average Number of Vertices In a Transaction: %.0f\n", s.AvgVertices)
	fmt.Fprintf(&b, "Max Number of Edges In a Transaction: %d\n", s.MaxEdges)
	fmt.Fprintf(&b, "Max Number of Vertices In a Transaction: %d\n", s.MaxVertices)
	for _, bucket := range s.SizeHistogram {
		fmt.Fprintf(&b, "The Number of Graph Transactions with Size between %d to %d: %d\n",
			bucket.Lo, bucket.Hi, bucket.Count)
	}
	return b.String()
}
