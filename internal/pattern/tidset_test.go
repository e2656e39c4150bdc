package pattern

import (
	"fmt"
	"math"
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

// randomTIDs draws n TIDs from [0, universe).
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
		wantMax := -1
		if len(oa) > 0 {
			wantMax = oa[len(oa)-1]
		}
		if sa.Max() != wantMax {
			t.Fatalf("trial %d: Max=%d want %d", trial, sa.Max(), wantMax)
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

// TestTIDSetRange pins the representable range: 0 through
// math.MaxUint32. Add and Offset panic past either end.
func TestTIDSetRange(t *testing.T) {
	s := NewTIDSet(0, math.MaxUint32)
	if got := s.Slice(); !eqSlices(got, []int{0, math.MaxUint32}) {
		t.Fatalf("edge members = %v", got)
	}
	if s.Contains(math.MaxUint32+1) || s.Contains(-1) {
		t.Fatal("Contains reports a member outside the range")
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Add(-1)", func() { var s TIDSet; s.Add(-1) })
	mustPanic("Add(MaxUint32+1)", func() { var s TIDSet; s.Add(math.MaxUint32 + 1) })
	mustPanic("Offset past MaxUint32", func() { NewTIDSet(1, math.MaxUint32-1).Offset(2) })
	if got := NewTIDSet(1, math.MaxUint32-1).Offset(1).Max(); got != math.MaxUint32 {
		t.Fatalf("Offset to the top: Max=%d", got)
	}
}

// decodeFuzzTIDs splits fuzz bytes into an offset and two unsorted TID
// lists that may repeat members. data[0] picks how many TIDs go to
// the first list, data[1] a left shift (0..16) spreading the 16-bit
// values up to near math.MaxUint32, data[2:4] the Offset amount; the
// rest are little-endian 16-bit TIDs.
func decodeFuzzTIDs(data []byte) (a, b []int, off int) {
	if len(data) < 4 {
		return nil, nil, 0
	}
	shift := uint(data[1]) % 17
	off = int(data[2]) | int(data[3])<<8
	var all []int
	for i := 4; i+1 < len(data); i += 2 {
		all = append(all, (int(data[i])|int(data[i+1])<<8)<<shift)
	}
	split := int(data[0]) % (len(all) + 1)
	return all[:split], all[split:], off
}

// FuzzTIDSet checks TIDSet against the sorted, duplicate-free []int
// model (sortedOracle) on every query the miner and the store use.
// The checked-in corpus under testdata/fuzz/FuzzTIDSet covers repeats,
// an empty side, members near math.MaxUint32, an Offset past it and
// the galloping intersection.
func FuzzTIDSet(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rawA, rawB, off := decodeFuzzTIDs(data)
		ma, mb := sortedOracle(rawA), sortedOracle(rawB)
		sa, sb := TIDSetFromSlice(rawA), TIDSetFromSlice(rawB)

		var added TIDSet
		for _, tid := range rawA {
			added.Add(tid)
		}
		if !added.Equal(sa) {
			t.Fatalf("Add in input order %v != TIDSetFromSlice %v", added, sa)
		}
		if sa.Len() != len(ma) || sa.IsEmpty() != (len(ma) == 0) {
			t.Fatalf("Len=%d IsEmpty=%v, model has %d", sa.Len(), sa.IsEmpty(), len(ma))
		}
		if got := sa.Slice(); !eqSlices(got, ma) {
			t.Fatalf("Slice=%v model %v", got, ma)
		}
		n := 0
		for pos, tid := range sa.All() {
			if pos != n || tid != ma[pos] {
				t.Fatalf("All() yields (%d,%d) at step %d, model %v", pos, tid, n, ma)
			}
			n++
		}
		if n != len(ma) {
			t.Fatalf("All() yielded %d members, model %d", n, len(ma))
		}
		wantMax := -1
		if len(ma) > 0 {
			wantMax = ma[len(ma)-1]
		}
		if sa.Max() != wantMax {
			t.Fatalf("Max=%d model %d", sa.Max(), wantMax)
		}
		if got, want := sa.String(), fmt.Sprint(append([]int{}, ma...)); got != want {
			t.Fatalf("String=%q model %q", got, want)
		}

		// Membership: probe every member of either list and its
		// neighbours, ascending, through Contains and one Cursor.
		inA := map[int]bool{}
		for _, v := range ma {
			inA[v] = true
		}
		var probes []int
		for _, v := range append(append([]int{}, ma...), mb...) {
			probes = append(probes, v-1, v, v+1)
		}
		probes = sortedOracle(probes)
		cur := sa.Cursor()
		for _, v := range probes {
			if sa.Contains(v) != inA[v] {
				t.Fatalf("Contains(%d)=%v model %v", v, sa.Contains(v), inA[v])
			}
			if cur.Contains(v) != inA[v] {
				t.Fatalf("Cursor.Contains(%d) disagrees with the model %v", v, inA[v])
			}
		}

		wantAnd := intersectOracle(ma, mb)
		if got := sa.And(sb); !eqSlices(got.Slice(), wantAnd) || !got.Equal(TIDSetFromSlice(wantAnd)) {
			t.Fatalf("And=%v model %v", got, wantAnd)
		}
		if got := sa.AndCard(sb); got != len(wantAnd) {
			t.Fatalf("AndCard=%d model %d", got, len(wantAnd))
		}
		if sa.Equal(sb) != eqSlices(ma, mb) {
			t.Fatalf("Equal=%v, model lists equal %v", sa.Equal(sb), eqSlices(ma, mb))
		}

		cl := sa.Clone()
		if !cl.Equal(sa) {
			t.Fatal("Clone not Equal")
		}
		cl.Add(0)
		cl.Add(math.MaxUint32)
		if got := sa.Slice(); !eqSlices(got, ma) {
			t.Fatalf("Add to a clone changed the original: %v, model %v", got, ma)
		}

		if wantMax+off > math.MaxUint32 {
			defer func() {
				if recover() == nil {
					t.Fatalf("Offset(%d) past math.MaxUint32 did not panic (Max %d)", off, wantMax)
				}
			}()
		}
		wantShift := make([]int, len(ma))
		for i, v := range ma {
			wantShift[i] = v + off
		}
		if got := sa.Offset(off).Slice(); !eqSlices(got, wantShift) {
			t.Fatalf("Offset(%d)=%v model %v", off, got, wantShift)
		}
	})
}
