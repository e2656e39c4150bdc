package pattern

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// sortedOracle is the reference model: a deduplicated ascending []int.
func sortedOracle(tids []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, t := range tids {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	sort.Ints(out)
	return out
}

func intersectOracle(a, b []int) []int {
	out := []int{}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func unionOracle(a, b []int) []int {
	return sortedOracle(append(append([]int{}, a...), b...))
}

func eqSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomTIDs draws n TIDs from a universe chosen to stress the
// container machinery: some draws stay inside one chunk, some span
// the 65536 chunk boundary, some push single chunks past the 4096
// array→bitmap threshold.
func randomTIDs(rng *rand.Rand, n, universe int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(universe)
	}
	return out
}

func TestTIDSetAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	universes := []int{1, 100, 4096, 4097, 65535, 65536, 65537, 200000, 1 << 20}
	for trial := 0; trial < 400; trial++ {
		uni := universes[rng.Intn(len(universes))]
		na, nb := rng.Intn(3*uni/2+2), rng.Intn(3*uni/2+2)
		if na > 30000 {
			na = 30000
		}
		if nb > 30000 {
			nb = 30000
		}
		rawA, rawB := randomTIDs(rng, na, uni), randomTIDs(rng, nb, uni)
		oa, ob := sortedOracle(rawA), sortedOracle(rawB)
		sa, sb := TIDSetFromSlice(rawA), TIDSetFromSlice(rawB)

		if got := sa.Slice(); !eqSlices(got, oa) {
			t.Fatalf("trial %d: Slice mismatch: got %d members, want %d", trial, len(got), len(oa))
		}
		if sa.Len() != len(oa) {
			t.Fatalf("trial %d: Len=%d want %d", trial, sa.Len(), len(oa))
		}
		wantMax, wantMin := -1, -1
		if len(oa) > 0 {
			wantMin, wantMax = oa[0], oa[len(oa)-1]
		}
		if sa.Min() != wantMin || sa.Max() != wantMax {
			t.Fatalf("trial %d: Min/Max=%d/%d want %d/%d", trial, sa.Min(), sa.Max(), wantMin, wantMax)
		}

		wantAnd := intersectOracle(oa, ob)
		if got := sa.And(sb); !eqSlices(got.Slice(), wantAnd) {
			t.Fatalf("trial %d: And mismatch (|a|=%d |b|=%d uni=%d): got %d want %d members",
				trial, len(oa), len(ob), uni, got.Len(), len(wantAnd))
		} else if !got.Equal(TIDSetFromSlice(wantAnd)) {
			t.Fatalf("trial %d: And result not Equal to rebuilt oracle set", trial)
		}
		if got := sa.AndCard(sb); got != len(wantAnd) {
			t.Fatalf("trial %d: AndCard=%d want %d", trial, got, len(wantAnd))
		}
		if got := sa.Or(sb); !eqSlices(got.Slice(), unionOracle(oa, ob)) {
			t.Fatalf("trial %d: Or mismatch", trial)
		}
		off := rng.Intn(100000)
		shifted := sa.Offset(off)
		wantShift := make([]int, len(oa))
		for i, v := range oa {
			wantShift[i] = v + off
		}
		if got := shifted.Slice(); !eqSlices(got, wantShift) {
			t.Fatalf("trial %d: Offset(%d) mismatch", trial, off)
		}

		// Membership: every member present, random non-members absent;
		// the monotone cursor agrees on an ascending probe sweep.
		cur := sa.Cursor()
		probe := append(append([]int{}, oa...), randomTIDs(rng, 50, uni+1000)...)
		sort.Ints(probe)
		inA := map[int]bool{}
		for _, v := range oa {
			inA[v] = true
		}
		for _, v := range probe {
			if sa.Contains(v) != inA[v] {
				t.Fatalf("trial %d: Contains(%d)=%v want %v", trial, v, sa.Contains(v), inA[v])
			}
			if cur.Contains(v) != inA[v] {
				t.Fatalf("trial %d: Cursor.Contains(%d) disagrees with oracle", trial, v)
			}
		}

		// Positional iteration aligns with the sorted oracle.
		for pos, tid := range sa.All() {
			if oa[pos] != tid {
				t.Fatalf("trial %d: All() pos %d = %d, oracle %d", trial, pos, tid, oa[pos])
			}
		}

		cl := sa.Clone()
		if !cl.Equal(sa) {
			t.Fatalf("trial %d: Clone not Equal", trial)
		}
	}
}

// TestTIDSetContainerBoundaries pins behaviour exactly at the
// array→bitmap threshold (4096) and the chunk boundary (65536).
func TestTIDSetContainerBoundaries(t *testing.T) {
	for _, n := range []int{tidArrayMax - 1, tidArrayMax, tidArrayMax + 1, 2 * tidArrayMax} {
		var s TIDSet
		for i := 0; i < n; i++ {
			s.Add(i * 2) // spread within one chunk up to 16382
		}
		if s.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, s.Len())
		}
		wantBitmap := n > tidArrayMax
		if got := s.cons[0].bits != nil; got != wantBitmap {
			t.Fatalf("n=%d: bitmap=%v want %v", n, got, wantBitmap)
		}
		for i := 0; i < n; i++ {
			if !s.Contains(i * 2) {
				t.Fatalf("n=%d: missing member %d", n, i*2)
			}
			if s.Contains(i*2 + 1) {
				t.Fatalf("n=%d: phantom member %d", n, i*2+1)
			}
		}
		// Intersecting with a set that keeps only every 4th member must
		// drop back to an array container (canonical invariant).
		var quarter TIDSet
		for i := 0; i < n; i += 4 {
			quarter.Add(i * 2)
		}
		got := s.And(quarter)
		if got.Len() != quarter.Len() {
			t.Fatalf("n=%d: And quarter len=%d want %d", n, got.Len(), quarter.Len())
		}
		if got.Len() <= tidArrayMax && len(got.cons) > 0 && got.cons[0].bits != nil {
			t.Fatalf("n=%d: And result kept bitmap container at cardinality %d", n, got.Len())
		}
	}

	across := NewTIDSet(65534, 65535, 65536, 65537, 131071, 131072)
	if len(across.keys) != 3 {
		t.Fatalf("chunk split: %d chunks, want 3", len(across.keys))
	}
	if got := across.Slice(); !eqSlices(got, []int{65534, 65535, 65536, 65537, 131071, 131072}) {
		t.Fatalf("chunk boundary slice mismatch: %v", got)
	}
}

func TestTIDSetStringMatchesIntSlice(t *testing.T) {
	cases := [][]int{nil, {0}, {0, 1}, {3, 70000, 70001}}
	for _, c := range cases {
		s := TIDSetFromSlice(c)
		want := fmt.Sprint(append([]int{}, c...))
		if c == nil {
			want = "[]"
		}
		if got := fmt.Sprint(s); got != want {
			t.Fatalf("String: got %q want %q", got, want)
		}
	}
}
