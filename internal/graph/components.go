package graph

import "sort"

// WeaklyConnectedComponents partitions the vertices of g into
// weakly connected components (treating every edge as undirected) and
// returns each component as a sorted vertex-ID slice, largest first.
func (g *Graph) WeaklyConnectedComponents() [][]VertexID {
	visited := make([]bool, len(g.vertices))
	var comps [][]VertexID
	var stack []VertexID
	visit := func(v VertexID) {
		if !visited[v] {
			visited[v] = true
			stack = append(stack, v)
		}
	}
	for start := range g.vertices {
		if visited[start] {
			continue
		}
		comp := []VertexID{}
		visit(VertexID(start))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, id := range g.out[v] {
				visit(g.edges[id].To)
			}
			for _, id := range g.in[v] {
				visit(g.edges[id].From)
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool {
		if len(comps[i]) != len(comps[j]) {
			return len(comps[i]) > len(comps[j])
		}
		return comps[i][0] < comps[j][0]
	})
	return comps
}

// SplitComponents returns one graph per weakly connected
// component of g, each equal to g.InducedSubgraph of the component.
// Section 6 of the paper breaks each disconnected per-day graph
// transaction into multiple connected graph transactions before
// handing them to FSG. One pass over the edges hands each to its
// component's graph.
func (g *Graph) SplitComponents() []*Graph {
	comps := g.WeaklyConnectedComponents()
	graphs := make([]*Graph, len(comps))
	compOf := make([]int, len(g.vertices))
	newID := make([]VertexID, len(g.vertices))
	for i, comp := range comps {
		name := g.Name
		if len(comps) > 1 {
			name = g.Name + "/" + itoa(i)
		}
		sub := New(name)
		for _, v := range comp {
			compOf[v] = i
			newID[v] = sub.AddVertex(g.vertices[v].Label)
		}
		graphs[i] = sub
	}
	for _, e := range g.edges {
		graphs[compOf[e.From]].AddEdge(newID[e.From], newID[e.To], e.Label)
	}
	return graphs
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		pos--
		buf[pos] = '-'
	}
	return string(buf[pos:])
}
