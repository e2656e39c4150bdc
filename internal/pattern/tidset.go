package pattern

import (
	"iter"
	"math"
	"slices"
	"sort"
	"strconv"
)

// TIDSet is a set of transaction IDs — the representation behind
// Pattern.TIDs: one sorted, duplicate-free []uint32. The TID universe
// of a mine is its transaction count (a few thousand on the paper's
// workloads), so the miner's hot operations — downward-closure
// intersection and membership probes — are plain sorted merges and
// binary searches over a slice that fits in cache.
//
// TIDs are non-negative and at most math.MaxUint32; Add and Offset
// panic outside that range, and decoders of untrusted bytes check it
// first.
//
// A TIDSet is built once (ascending Add calls or a constructor) and
// then treated as immutable by everything that shares it; the query
// methods are safe for concurrent readers.
type TIDSet struct {
	tids []uint32 // ascending, duplicate-free
}

// NewTIDSet builds a set from the given TIDs (any order, duplicates
// ignored). All TIDs must be non-negative.
func NewTIDSet(tids ...int) TIDSet {
	return TIDSetFromSlice(tids)
}

// TIDSetFromSlice builds a set from a slice of TIDs (any order,
// duplicates ignored).
func TIDSetFromSlice(tids []int) TIDSet {
	if len(tids) == 0 {
		return TIDSet{}
	}
	out := make([]uint32, len(tids))
	for i, tid := range tids {
		out[i] = checkTID(tid)
	}
	slices.Sort(out)
	return TIDSet{tids: slices.Compact(out)}
}

// checkTID converts tid to its stored form, panicking outside
// [0, math.MaxUint32].
func checkTID(tid int) uint32 {
	if tid < 0 {
		panic("pattern: negative TID")
	}
	if uint64(tid) > math.MaxUint32 {
		panic("pattern: TID above math.MaxUint32")
	}
	return uint32(tid)
}

// Add inserts tid. Ascending inserts (the mining order) are O(1)
// amortised; out-of-order inserts cost a binary search and a
// mid-slice insertion.
func (s *TIDSet) Add(tid int) {
	v := checkTID(tid)
	if n := len(s.tids); n == 0 || s.tids[n-1] < v {
		s.tids = append(s.tids, v)
		return
	}
	i, found := slices.BinarySearch(s.tids, v)
	if !found {
		s.tids = slices.Insert(s.tids, i, v)
	}
}

// Len returns the number of TIDs in the set.
func (s TIDSet) Len() int { return len(s.tids) }

// IsEmpty reports whether the set has no members.
func (s TIDSet) IsEmpty() bool { return len(s.tids) == 0 }

// Contains reports whether tid is a member.
func (s TIDSet) Contains(tid int) bool {
	if tid < 0 || uint64(tid) > math.MaxUint32 {
		return false
	}
	_, found := slices.BinarySearch(s.tids, uint32(tid))
	return found
}

// Max returns the largest member, or -1 if the set is empty.
func (s TIDSet) Max() int {
	if len(s.tids) == 0 {
		return -1
	}
	return int(s.tids[len(s.tids)-1])
}

// Slice returns the members ascending as a fresh []int.
func (s TIDSet) Slice() []int {
	out := make([]int, len(s.tids))
	for i, v := range s.tids {
		out[i] = int(v)
	}
	return out
}

// All iterates the members ascending as (position, tid) pairs — the
// positional index is what aligns Pattern.TIDs with Pattern.Embs.
func (s TIDSet) All() iter.Seq2[int, int] {
	return func(yield func(int, int) bool) {
		for i, v := range s.tids {
			if !yield(i, int(v)) {
				return
			}
		}
	}
}

// Values iterates the members ascending.
func (s TIDSet) Values() iter.Seq[int] {
	return func(yield func(int) bool) {
		for _, v := range s.tids {
			if !yield(int(v)) {
				return
			}
		}
	}
}

// Clone returns a deep copy that shares no storage with s.
func (s TIDSet) Clone() TIDSet {
	return TIDSet{tids: slices.Clone(s.tids)}
}

// Equal reports whether s and o hold the same members.
func (s TIDSet) Equal(o TIDSet) bool {
	return slices.Equal(s.tids, o.tids)
}

// And returns the intersection of s and o as a new set: a sorted
// merge, galloping through the larger side when the sizes are very
// unbalanced.
func (s TIDSet) And(o TIDSet) TIDSet {
	x, y := s.tids, o.tids
	if len(x) > len(y) {
		x, y = y, x
	}
	if len(x) == 0 {
		return TIDSet{}
	}
	out := make([]uint32, 0, len(x))
	if len(y) >= 32*len(x) {
		lo := 0
		for _, v := range x {
			i := lo + sort.Search(len(y)-lo, func(i int) bool { return y[lo+i] >= v })
			if i < len(y) && y[i] == v {
				out = append(out, v)
				i++
			}
			lo = i
		}
		return TIDSet{tids: out}
	}
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			out = append(out, x[i])
			i++
			j++
		}
	}
	return TIDSet{tids: out}
}

// AndCard returns the cardinality of the intersection without
// materialising it.
func (s TIDSet) AndCard(o TIDSet) int {
	a, b := s.tids, o.tids
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Offset returns a new set with k >= 0 added to every member — the
// structural store's per-repetition TID shift.
func (s TIDSet) Offset(k int) TIDSet {
	if k < 0 {
		panic("pattern: negative TID offset")
	}
	if len(s.tids) == 0 {
		return TIDSet{}
	}
	checkTID(s.Max() + k)
	out := make([]uint32, len(s.tids))
	for i, v := range s.tids {
		out[i] = v + uint32(k)
	}
	return TIDSet{tids: out}
}

// Cursor returns a monotone membership prober: successive Contains
// calls with ascending TIDs advance a position instead of
// re-searching the set. The cursor is call-site-local state, so
// concurrent readers each take their own.
func (s *TIDSet) Cursor() TIDCursor { return TIDCursor{s: s} }

// TIDCursor probes one TIDSet with ascending TIDs. Probing out of
// order may miss members (it only moves forward).
type TIDCursor struct {
	s *TIDSet
	i int
}

// Contains reports membership of tid, assuming tid is >= every
// previously probed value.
func (c *TIDCursor) Contains(tid int) bool {
	tids := c.s.tids
	for c.i < len(tids) && int(tids[c.i]) < tid {
		c.i++
	}
	return c.i < len(tids) && int(tids[c.i]) == tid
}

// String renders the set exactly like fmt.Sprint of the ascending
// []int holding its members (e.g. "[0 1 5]").
func (s TIDSet) String() string {
	b := make([]byte, 0, 2+8*len(s.tids))
	b = append(b, '[')
	for i, v := range s.tids {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendUint(b, uint64(v), 10)
	}
	return string(append(b, ']'))
}
