package dataset

// LocationTable is a dataset's location-label table: it numbers the
// distinct locations densely, gives each the label ID of its "lat,lon"
// string (LatLon.String), and formats each distinct location once.
// Two locations whose strings are equal keep their own location IDs,
// so a graph still gives them a vertex each, but share one label ID.
// Both kinds of ID count up from zero in order of first appearance
// (each transaction's origin, then its destination).
type LocationTable struct {
	// Origins and Dests are each transaction's endpoints, as location
	// IDs, indexed like Dataset.Transactions.
	Origins, Dests []int32
	// LabelIDs maps a location ID to its label ID.
	LabelIDs []int32
	// Labels maps a label ID to its string.
	Labels []string
}

// NewLocationTable builds d's location-label table.
func NewLocationTable(d *Dataset) *LocationTable {
	n := len(d.Transactions)
	t := &LocationTable{Origins: make([]int32, n), Dests: make([]int32, n)}
	locs := make(map[LatLon]int32)
	labels := make(map[string]int32)
	id := func(p LatLon) int32 {
		if loc, ok := locs[p]; ok {
			return loc
		}
		s := p.String()
		label, ok := labels[s]
		if !ok {
			label = int32(len(t.Labels))
			labels[s] = label
			t.Labels = append(t.Labels, s)
		}
		loc := int32(len(t.LabelIDs))
		locs[p] = loc
		t.LabelIDs = append(t.LabelIDs, label)
		return loc
	}
	for i := range d.Transactions {
		tx := &d.Transactions[i]
		t.Origins[i] = id(tx.Origin)
		t.Dests[i] = id(tx.Dest)
	}
	return t
}

// Label returns the label string of location loc.
func (t *LocationTable) Label(loc int32) string { return t.Labels[t.LabelIDs[loc]] }
