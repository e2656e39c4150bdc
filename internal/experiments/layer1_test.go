package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"testing"

	"tnkd/internal/dataset"
	"tnkd/internal/graph"
	"tnkd/internal/partition"
)

// layer1Case is one generated dataset whose generator output and
// temporal partitions TestLayer1Digests pins.
type layer1Case struct {
	scale float64
	seed  int64
	// generate digests Generate's transactions; partition digests
	// labelCap, RunTable3 and the Figure 4 and Table 2 partitions.
	generate, partition string
}

var layer1Cases = []layer1Case{
	{0.025, 20050405,
		"c5f31dfdfdbc699edd505641c38463da59cce1947f7dce98cc9357cc09f5af88",
		"724744e80d99da754e013d145e85f54ce0623eb0596b48fe29dc3795e0efab44"},
	{0.025, 1,
		"3e9b70892bfa458d866927b34747ee453d64a17ebcb00b0567d8194f70208c55",
		"addf351554383eef7e2ca037ddc16f3614de837e402342a8602bd4cd15af1ee4"},
	{0.1, 20050405,
		"7da1ad784c2a8c4291b75ab8de20471a11cad790410964ded45763da599dcc58",
		"0b4cc9730517725e65c99d740adfeb1b0dc9470441adfa4443b5a6d2eff5389f"},
	{0.1, 1,
		"8a4b83fb5d28223147c5d051aa89fdc4a3e4a93f831d7fcd5ad2a1d3d114d08d",
		"6376086c969097c3c88835c3b48716e7de175397abc478ebd2d754c6e587708c"},
}

// TestLayer1Digests pins dataset generation and temporal partitioning
// byte for byte: every transaction field, and every partition graph's
// name, vertex and edge IDs and labels, DayStarts and counters, plus
// the Table 3 label cap. Mining only sees these through FSG, so a
// changed partition could otherwise pass every mining test unnoticed.
func TestLayer1Digests(t *testing.T) {
	for _, c := range layer1Cases {
		t.Run(fmt.Sprintf("scale=%g/seed=%d", c.scale, c.seed), func(t *testing.T) {
			cfg := dataset.DefaultConfig().Scaled(c.scale)
			cfg.Seed = c.seed
			d := dataset.Generate(cfg)
			if got := digestTransactions(d); got != c.generate {
				t.Errorf("Generate digest = %s, want %s", got, c.generate)
			}
			if got := digestPartitions(Params{Data: d, Scale: c.scale, Seed: c.seed}); got != c.partition {
				t.Errorf("partition digest = %s, want %s", got, c.partition)
			}
		})
	}
}

func digestTransactions(d *dataset.Dataset) string {
	h := sha256.New()
	for _, t := range d.Transactions {
		writeInts(h, int64(t.ID), t.ReqPickup.Unix(), t.ReqDelivery.Unix())
		writeFloats(h, t.Origin.Lat, t.Origin.Lon, t.Dest.Lat, t.Dest.Lon,
			t.Distance, t.GrossWeight, t.TransitHours)
		io.WriteString(h, string(t.Mode)+"\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestPartitions(p Params) string {
	h := sha256.New()
	fmt.Fprintf(h, "labelCap %d\n", labelCap(p))
	t3 := RunTable3(p)
	fmt.Fprintf(h, "table3 %+v filtered %d\n", t3.Stats, t3.Filtered)
	digestTemporal(h, Figure4Partition(p))
	t2 := partition.DefaultTemporalOptions()
	t2.SplitComponents = false
	digestTemporal(h, partition.Temporal(p.Data, t2))
	return hex.EncodeToString(h.Sum(nil))
}

func digestTemporal(h hash.Hash, res *partition.TemporalResult) {
	fmt.Fprintf(h, "days %d starts %v dup %d single %d filtered %d\n",
		res.DaysTotal, res.DayStarts, res.DuplicateEdgesDropped,
		res.SingleEdgeDropped, res.FilteredByVertexLabels)
	for _, g := range res.Transactions {
		digestGraph(h, g)
	}
}

func digestGraph(h hash.Hash, g *graph.Graph) {
	fmt.Fprintf(h, "graph %q\n", g.Name)
	for v := range graph.VertexID(g.NumVertices()) {
		fmt.Fprintf(h, "v %d %q\n", v, g.Vertex(v).Label)
	}
	for id := range graph.EdgeID(g.NumEdges()) {
		e := g.Edge(id)
		fmt.Fprintf(h, "e %d %d %d %q\n", id, e.From, e.To, e.Label)
	}
}

func writeInts(w io.Writer, vs ...int64) {
	for _, v := range vs {
		binary.Write(w, binary.LittleEndian, v)
	}
}

func writeFloats(w io.Writer, vs ...float64) {
	for _, v := range vs {
		binary.Write(w, binary.LittleEndian, math.Float64bits(v))
	}
}
