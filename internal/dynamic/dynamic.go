// Package dynamic implements the dynamic-graph mining challenges the
// paper poses in Section 9 as future work:
//
//   - A dynamic graph — edges exist only for certain periods of time
//     (an OD pair is active between pickup and delivery).
//   - Frequently repeated connection paths, "where the entire path is
//     not connected at any given time instant but adjacent edges and
//     vertices always co-exist": multi-leg routes whose legs follow
//     each other within a bounded gap, repeated many times over the
//     six months.
//   - Periodicity: routes repeating with an (initially unknown)
//     period, e.g. weekly dedicated lanes.
//
// The paper's Section 9 observes that a cycle Melbourne → Lafayette →
// Atlanta → Melbourne "over a space of a week" matters more than one
// on a single day, and that the legs must be separated by bounded
// times; TimePathQuery encodes exactly those constraints.
package dynamic

import (
	"fmt"
	"sort"
	"strings"

	"tnkd/internal/bin"
	"tnkd/internal/dataset"
)

// Edge is one timed edge of a dynamic graph: the lane From -> To is
// active on days [Start, End] (inclusive), with a binned attribute
// label.
type Edge struct {
	From, To string
	Label    string
	Start    int // day offset of the pickup
	End      int // day offset of the delivery
}

// Graph is a dynamic graph: a multiset of timed edges.
type Graph struct {
	Edges []Edge
	// Days is the horizon (max End + 1).
	Days int

	byFrom map[string][]int // edge indices by origin vertex
}

// FromDataset builds the dynamic graph of an OD dataset: one timed
// edge per transaction, vertices labeled by location, labels from the
// binned attribute, time measured in days from the earliest pickup.
func FromDataset(d *dataset.Dataset, attr dataset.EdgeAttr, binner bin.Binner) *Graph {
	if binner == nil {
		binner = attr.DefaultBinner()
	}
	if len(d.Transactions) == 0 {
		return &Graph{byFrom: map[string][]int{}}
	}
	base := d.Transactions[0].ReqPickup
	for _, t := range d.Transactions {
		if t.ReqPickup.Before(base) {
			base = t.ReqPickup
		}
	}
	locs := dataset.NewLocationTable(d)
	labels := bin.Labels(binner)
	g := &Graph{byFrom: make(map[string][]int)}
	for i, t := range d.Transactions {
		start := int(t.ReqPickup.Sub(base).Hours() / 24)
		end := int(t.ReqDelivery.Sub(base).Hours() / 24)
		e := Edge{
			From:  locs.Label(locs.Origins[i]),
			To:    locs.Label(locs.Dests[i]),
			Label: labels[binner.Bin(attr.Value(t))],
			Start: start,
			End:   end,
		}
		g.Edges = append(g.Edges, e)
		if e.End+1 > g.Days {
			g.Days = e.End + 1
		}
	}
	g.index()
	return g
}

func (g *Graph) index() {
	g.byFrom = make(map[string][]int)
	for i, e := range g.Edges {
		g.byFrom[e.From] = append(g.byFrom[e.From], i)
	}
	for _, idxs := range g.byFrom {
		sort.Slice(idxs, func(a, b int) bool { return g.Edges[idxs[a]].Start < g.Edges[idxs[b]].Start })
	}
}

// TimePathQuery constrains the connection paths to search for.
type TimePathQuery struct {
	// MinLegs / MaxLegs bound the number of edges in the path.
	MinLegs, MaxLegs int
	// MaxGap is the largest allowed number of days between one leg's
	// delivery and the next leg's pickup (the "adjacent edges must
	// co-exist" constraint: 0 means the next leg starts no later than
	// the day the previous one ends... plus the gap).
	MaxGap int
	// MinSep is the minimum days between consecutive pickups (the
	// paper: "transactions composing the pattern must be separated by
	// a minimum or maximum time").
	MinSep int
	// Window bounds the total duration from first pickup to last
	// delivery (the "over a space of a week" constraint).
	Window int
	// Support is the number of time-disjoint occurrences required.
	Support int
	// CyclesOnly keeps only paths returning to their origin —
	// the efficient circular routes of Section 1.
	CyclesOnly bool
	// Budget bounds search-tree expansions (0 = 2,000,000). The
	// search stops cleanly when exhausted; results found so far are
	// still reported.
	Budget int
}

// TimedPath is one occurrence of a connection path.
type TimedPath struct {
	Vertices []string // k+1 vertices for k legs
	Labels   []string // leg labels
	Starts   []int    // pickup day of each leg
	End      int      // delivery day of the final leg
}

// key identifies the location sequence (the repeated route).
func (p TimedPath) key() string {
	return strings.Join(p.Vertices, "→")
}

// String renders the occurrence.
func (p TimedPath) String() string {
	return fmt.Sprintf("%s (days %v)", p.key(), p.Starts)
}

// RepeatedPath is a connection path that repeats over time.
type RepeatedPath struct {
	Vertices    []string
	Occurrences []TimedPath // time-disjoint, ascending by start
}

// Support returns the number of time-disjoint occurrences.
func (r RepeatedPath) Support() int { return len(r.Occurrences) }

// String renders the repeated route.
func (r RepeatedPath) String() string {
	return fmt.Sprintf("%s ×%d", strings.Join(r.Vertices, "→"), len(r.Occurrences))
}

// FindRepeatedPaths enumerates connection paths satisfying the query
// and returns those with at least query.Support time-disjoint
// occurrences, ordered by support descending then lexicographically.
func FindRepeatedPaths(g *Graph, q TimePathQuery) []RepeatedPath {
	if q.MinLegs < 1 {
		q.MinLegs = 2
	}
	if q.MaxLegs < q.MinLegs {
		q.MaxLegs = q.MinLegs
	}
	if q.Support < 1 {
		q.Support = 2
	}
	if q.Budget <= 0 {
		q.Budget = 2000000
	}
	budget := q.Budget
	occs := make(map[string][]TimedPath)
	emit := func(p TimedPath) {
		occs[p.key()] = append(occs[p.key()], p)
	}

	var grow func(p TimedPath)
	grow = func(p TimedPath) {
		if budget <= 0 {
			return
		}
		budget--
		legs := len(p.Labels)
		if legs >= q.MinLegs && (!q.CyclesOnly || p.Vertices[0] == p.Vertices[len(p.Vertices)-1]) {
			emit(p)
		}
		if legs == q.MaxLegs {
			return
		}
		last := p.Vertices[len(p.Vertices)-1]
		lastStart := p.Starts[len(p.Starts)-1]
		for _, ei := range g.byFrom[last] {
			e := g.Edges[ei]
			if e.Start < lastStart+q.MinSep {
				continue
			}
			if e.Start > p.End+q.MaxGap {
				continue
			}
			if q.Window > 0 && e.End-p.Starts[0] > q.Window {
				continue
			}
			// No immediate ping-pong within an occurrence unless it
			// closes a cycle at the origin.
			if e.To == last {
				continue
			}
			next := TimedPath{
				Vertices: append(append([]string{}, p.Vertices...), e.To),
				Labels:   append(append([]string{}, p.Labels...), e.Label),
				Starts:   append(append([]int{}, p.Starts...), e.Start),
				End:      e.End,
			}
			grow(next)
		}
	}
	for _, e := range g.Edges {
		grow(TimedPath{
			Vertices: []string{e.From, e.To},
			Labels:   []string{e.Label},
			Starts:   []int{e.Start},
			End:      e.End,
		})
	}

	var out []RepeatedPath
	for key, list := range occs {
		disjoint := timeDisjoint(list)
		if len(disjoint) >= q.Support {
			out = append(out, RepeatedPath{
				Vertices:    disjoint[0].Vertices,
				Occurrences: disjoint,
			})
		}
		_ = key
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Occurrences) != len(out[j].Occurrences) {
			return len(out[i].Occurrences) > len(out[j].Occurrences)
		}
		return strings.Join(out[i].Vertices, "→") < strings.Join(out[j].Vertices, "→")
	})
	return out
}

// timeDisjoint greedily selects occurrences whose [first pickup,
// last delivery] windows do not overlap, earliest-ending first (the
// classic interval-scheduling maximum).
func timeDisjoint(list []TimedPath) []TimedPath {
	sort.Slice(list, func(i, j int) bool {
		if list[i].End != list[j].End {
			return list[i].End < list[j].End
		}
		return list[i].Starts[0] < list[j].Starts[0]
	})
	var out []TimedPath
	lastEnd := -1 << 30
	for _, p := range list {
		if p.Starts[0] > lastEnd {
			out = append(out, p)
			lastEnd = p.End
		}
	}
	return out
}

// Periodicity describes the repetition cadence of a lane.
type Periodicity struct {
	From, To    string
	Occurrences int
	// Period is the dominant gap between successive pickups in days
	// (0 when no gap repeats).
	Period int
	// Regularity is the fraction of successive gaps within ±1 day of
	// the dominant period.
	Regularity float64
}

// String renders the cadence.
func (p Periodicity) String() string {
	return fmt.Sprintf("%s→%s ×%d period=%dd regularity=%.0f%%",
		p.From, p.To, p.Occurrences, p.Period, p.Regularity*100)
}

// DetectPeriodicity finds lanes whose pickups repeat with a dominant
// period, addressing the paper's "periodicity in routes ... possibly
// with an unknown period" challenge. Lanes need at least minOccur
// pickups and regularity of at least minRegularity to be reported.
func DetectPeriodicity(g *Graph, minOccur int, minRegularity float64) []Periodicity {
	if minOccur < 3 {
		minOccur = 3
	}
	type laneKey struct{ from, to string }
	starts := make(map[laneKey][]int)
	for _, e := range g.Edges {
		k := laneKey{e.From, e.To}
		starts[k] = append(starts[k], e.Start)
	}
	var out []Periodicity
	for k, days := range starts {
		if len(days) < minOccur {
			continue
		}
		sort.Ints(days)
		gaps := make(map[int]int)
		total := 0
		for i := 1; i < len(days); i++ {
			gap := days[i] - days[i-1]
			if gap == 0 {
				continue // same-day repeats carry no cadence signal
			}
			gaps[gap]++
			total++
		}
		if total == 0 {
			continue
		}
		period, count := 0, 0
		for gap, c := range gaps {
			if c > count || (c == count && gap < period) {
				period, count = gap, c
			}
		}
		near := 0
		for gap, c := range gaps {
			if gap >= period-1 && gap <= period+1 {
				near += c
			}
		}
		reg := float64(near) / float64(total)
		if reg >= minRegularity {
			out = append(out, Periodicity{
				From: k.from, To: k.to,
				Occurrences: len(days),
				Period:      period,
				Regularity:  reg,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Occurrences != out[j].Occurrences {
			return out[i].Occurrences > out[j].Occurrences
		}
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}
