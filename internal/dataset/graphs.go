package dataset

import (
	"strconv"

	"tnkd/internal/bin"
	"tnkd/internal/graph"
)

// EdgeAttr selects which transaction attribute labels the edges of an
// OD graph (Section 3 defines the three variants).
type EdgeAttr int

// The three edge-labeling attributes of Section 3.
const (
	// GrossWeight labels edges with binned GROSS_WEIGHT (graph OD_GW).
	GrossWeight EdgeAttr = iota
	// TransitHours labels edges with binned MOVE_TRANSIT_HOURS (OD_TH).
	TransitHours
	// TotalDistance labels edges with binned TOTAL_DISTANCE (OD_TD).
	TotalDistance
)

// String returns the paper's name for the graph variant.
func (a EdgeAttr) String() string {
	switch a {
	case GrossWeight:
		return "OD_GW"
	case TransitHours:
		return "OD_TH"
	case TotalDistance:
		return "OD_TD"
	}
	return "OD_??"
}

// Value extracts the attribute value from a transaction.
func (a EdgeAttr) Value(t Transaction) float64 {
	switch a {
	case GrossWeight:
		return t.GrossWeight
	case TransitHours:
		return t.TransitHours
	default:
		return t.Distance
	}
}

// DefaultBinner returns the paper's binning for the attribute: seven
// equal-width 6,500 lb weight bins (Figure 4 shows the intervals
// [0, 6500] and [13000, 19500]), ten transit-hour bins, ten distance
// bins.
func (a EdgeAttr) DefaultBinner() bin.Binner {
	switch a {
	case GrossWeight:
		return bin.NewEqualWidth(0, 45500, 7)
	case TransitHours:
		return bin.NewEqualWidth(0, 150, 10)
	default:
		return bin.NewEqualWidth(0, 3200, 10)
	}
}

// VertexLabeling selects how OD-graph vertices are labeled.
type VertexLabeling int

const (
	// UniformLabels gives every vertex the same label so that only
	// structure matters (Section 5: structurally similar routes).
	UniformLabels VertexLabeling = iota
	// UniqueLabels labels each vertex with its lat-lon so patterns
	// are tied to locations (Section 6: temporally repeated routes).
	UniqueLabels
)

// uniformVertexLabel is the shared label under UniformLabels.
const uniformVertexLabel = "*"

// GraphOptions controls BuildGraph.
type GraphOptions struct {
	Attr     EdgeAttr
	Vertices VertexLabeling
	// ExactLabels, when set, labels edges with the exact attribute
	// value instead of a bin interval. The paper notes this leads to
	// few frequent patterns (edge labels become nearly unique); it is
	// exposed for the binning ablation.
	ExactLabels bool
}

// BuildGraph converts the dataset into the labeled directed
// multigraph of Section 3: one vertex per distinct location, one edge
// per transaction, edge label the chosen attribute binned by
// Attr.DefaultBinner().
func (d *Dataset) BuildGraph(opts GraphOptions) *graph.Graph {
	binner := opts.Attr.DefaultBinner()
	labels := bin.Labels(binner)
	g := graph.New(opts.Attr.String())
	idx := make(map[LatLon]graph.VertexID)
	vertexOf := func(p LatLon) graph.VertexID {
		if id, ok := idx[p]; ok {
			return id
		}
		label := uniformVertexLabel
		if opts.Vertices == UniqueLabels {
			label = p.String()
		}
		id := g.AddVertex(label)
		idx[p] = id
		return id
	}
	for _, t := range d.Transactions {
		from := vertexOf(t.Origin)
		to := vertexOf(t.Dest)
		v := opts.Attr.Value(t)
		var label string
		if opts.ExactLabels {
			label = exactLabel(v)
		} else {
			label = labels[binner.Bin(v)]
		}
		g.AddEdge(from, to, label)
	}
	return g
}

// exactLabel renders the raw attribute value with full precision.
func exactLabel(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}
