package pattern

import (
	"fmt"
	"iter"
	"math/bits"
	"sort"
	"strconv"
)

// TIDSet is a compressed set of transaction IDs — the representation
// behind Pattern.TIDs. It is a roaring-style two-level structure
// (Chambi et al., "Better bitmap performance with Roaring bitmaps"):
// TIDs are chunked by their high bits (tid >> 16) and each chunk is
// stored as either a sorted array of the low 16 bits (small chunks)
// or a 1024-word bitmap (dense chunks), so the set operations the
// miner's hot loops run — downward-closure intersection and
// membership probes — work a word at a time instead of an element at
// a time.
//
// The container invariant is canonical: a chunk with at most
// tidArrayMax members is always an array, a larger chunk is always a
// bitmap. Every constructor and set operation restores the invariant,
// which is what makes Equal a plain payload comparison.
//
// Like the []int it replaces, a TIDSet is built once (ascending Add
// calls or a constructor) and then treated as immutable by everything
// that shares it; the query methods are safe for concurrent readers.
type TIDSet struct {
	keys []uint32       // ascending chunk keys (tid >> 16)
	cons []tidContainer // cons[i] holds the chunk keys[i]
	card int            // total members across all containers
}

const (
	tidChunkShift = 16
	tidChunkMask  = 1<<tidChunkShift - 1
	// tidArrayMax is the array→bitmap conversion threshold: past this
	// cardinality the 8 KiB bitmap is smaller than the sorted array
	// would be (4096 × 2 bytes) and word-parallel besides.
	tidArrayMax = 4096
	// tidWords is the word count of a bitmap container (2^16 bits).
	tidWords = 1 << (tidChunkShift - 6)
)

// tidContainer is one 2^16-TID chunk: exactly one of arr/bits is
// non-nil. arr holds the low 16 bits sorted ascending; bits is a
// tidWords-long bitmap. n caches the cardinality.
type tidContainer struct {
	arr  []uint16
	bits []uint64
	n    int
}

// NewTIDSet builds a set from the given TIDs (any order, duplicates
// ignored). All TIDs must be non-negative.
func NewTIDSet(tids ...int) TIDSet {
	return TIDSetFromSlice(tids)
}

// TIDSetFromSlice builds a set from a slice of TIDs (any order,
// duplicates ignored).
func TIDSetFromSlice(tids []int) TIDSet {
	var s TIDSet
	if len(tids) == 0 {
		return s
	}
	if !sort.IntsAreSorted(tids) {
		sorted := append([]int(nil), tids...)
		sort.Ints(sorted)
		tids = sorted
	}
	for _, tid := range tids {
		s.Add(tid)
	}
	return s
}

// Add inserts tid. Ascending inserts (the mining order) are O(1)
// amortised; out-of-order inserts cost a binary search and possibly a
// mid-slice insertion.
func (s *TIDSet) Add(tid int) {
	if tid < 0 {
		panic("pattern: negative TID")
	}
	key := uint32(tid >> tidChunkShift)
	low := uint16(tid & tidChunkMask)
	// Fast path: appending at or into the last chunk.
	ci := len(s.keys) - 1
	if ci < 0 || s.keys[ci] < key {
		s.keys = append(s.keys, key)
		s.cons = append(s.cons, tidContainer{arr: []uint16{low}, n: 1})
		s.card++
		return
	}
	if s.keys[ci] != key {
		ci = sort.Search(len(s.keys), func(i int) bool { return s.keys[i] >= key })
		if ci == len(s.keys) || s.keys[ci] != key {
			s.keys = append(s.keys, 0)
			copy(s.keys[ci+1:], s.keys[ci:])
			s.keys[ci] = key
			s.cons = append(s.cons, tidContainer{})
			copy(s.cons[ci+1:], s.cons[ci:])
			s.cons[ci] = tidContainer{arr: []uint16{low}, n: 1}
			s.card++
			return
		}
	}
	c := &s.cons[ci]
	if c.bits != nil {
		w, b := low>>6, uint64(1)<<(low&63)
		if c.bits[w]&b == 0 {
			c.bits[w] |= b
			c.n++
			s.card++
		}
		return
	}
	// Array container: ascending append fast path first.
	if last := len(c.arr) - 1; last < 0 || c.arr[last] < low {
		c.arr = append(c.arr, low)
	} else {
		i := sort.Search(len(c.arr), func(i int) bool { return c.arr[i] >= low })
		if i < len(c.arr) && c.arr[i] == low {
			return
		}
		c.arr = append(c.arr, 0)
		copy(c.arr[i+1:], c.arr[i:])
		c.arr[i] = low
	}
	c.n++
	s.card++
	if c.n > tidArrayMax {
		c.toBitmap()
	}
}

func (c *tidContainer) toBitmap() {
	bits := make([]uint64, tidWords)
	for _, v := range c.arr {
		bits[v>>6] |= uint64(1) << (v & 63)
	}
	c.bits, c.arr = bits, nil
}

// toArray restores the canonical array form of a bitmap container
// whose cardinality dropped to tidArrayMax or below.
func (c *tidContainer) toArray() {
	arr := make([]uint16, 0, c.n)
	for w, word := range c.bits {
		for word != 0 {
			arr = append(arr, uint16(w<<6+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	c.arr, c.bits = arr, nil
}

// canonical enforces the array/bitmap threshold invariant.
func (c *tidContainer) canonical() {
	if c.bits != nil && c.n <= tidArrayMax {
		c.toArray()
	}
}

func (c *tidContainer) contains(low uint16) bool {
	if c.bits != nil {
		return c.bits[low>>6]&(uint64(1)<<(low&63)) != 0
	}
	i := sort.Search(len(c.arr), func(i int) bool { return c.arr[i] >= low })
	return i < len(c.arr) && c.arr[i] == low
}

// Len returns the number of TIDs in the set.
func (s TIDSet) Len() int { return s.card }

// IsEmpty reports whether the set has no members.
func (s TIDSet) IsEmpty() bool { return s.card == 0 }

// Contains reports whether tid is a member.
func (s TIDSet) Contains(tid int) bool {
	if tid < 0 {
		return false
	}
	key := uint32(tid >> tidChunkShift)
	ci := sort.Search(len(s.keys), func(i int) bool { return s.keys[i] >= key })
	if ci == len(s.keys) || s.keys[ci] != key {
		return false
	}
	return s.cons[ci].contains(uint16(tid & tidChunkMask))
}

// Min returns the smallest member, or -1 if the set is empty.
func (s TIDSet) Min() int {
	if s.card == 0 {
		return -1
	}
	c, base := &s.cons[0], int(s.keys[0])<<tidChunkShift
	if c.bits != nil {
		for w, word := range c.bits {
			if word != 0 {
				return base + w<<6 + bits.TrailingZeros64(word)
			}
		}
	}
	return base + int(c.arr[0])
}

// Max returns the largest member, or -1 if the set is empty.
func (s TIDSet) Max() int {
	if s.card == 0 {
		return -1
	}
	last := len(s.cons) - 1
	c, base := &s.cons[last], int(s.keys[last])<<tidChunkShift
	if c.bits != nil {
		for w := tidWords - 1; w >= 0; w-- {
			if word := c.bits[w]; word != 0 {
				return base + w<<6 + 63 - bits.LeadingZeros64(word)
			}
		}
	}
	return base + int(c.arr[len(c.arr)-1])
}

// Slice returns the members ascending as a fresh []int.
func (s TIDSet) Slice() []int {
	return s.AppendTo(make([]int, 0, s.card))
}

// AppendTo appends the members ascending to dst and returns it.
func (s TIDSet) AppendTo(dst []int) []int {
	for ci := range s.cons {
		base := int(s.keys[ci]) << tidChunkShift
		c := &s.cons[ci]
		if c.bits != nil {
			for w, word := range c.bits {
				for word != 0 {
					dst = append(dst, base+w<<6+bits.TrailingZeros64(word))
					word &= word - 1
				}
			}
			continue
		}
		for _, v := range c.arr {
			dst = append(dst, base+int(v))
		}
	}
	return dst
}

// All iterates the members ascending as (position, tid) pairs — the
// positional index is what aligns Pattern.TIDs with Pattern.Embs.
func (s TIDSet) All() iter.Seq2[int, int] {
	return func(yield func(int, int) bool) {
		pos := 0
		for ci := range s.cons {
			base := int(s.keys[ci]) << tidChunkShift
			c := &s.cons[ci]
			if c.bits != nil {
				for w, word := range c.bits {
					for word != 0 {
						if !yield(pos, base+w<<6+bits.TrailingZeros64(word)) {
							return
						}
						pos++
						word &= word - 1
					}
				}
				continue
			}
			for _, v := range c.arr {
				if !yield(pos, base+int(v)) {
					return
				}
				pos++
			}
		}
	}
}

// Values iterates the members ascending.
func (s TIDSet) Values() iter.Seq[int] {
	return func(yield func(int) bool) {
		for _, tid := range s.All() {
			if !yield(tid) {
				return
			}
		}
	}
}

// Clone returns a deep copy that shares no storage with s.
func (s TIDSet) Clone() TIDSet {
	out := TIDSet{card: s.card}
	if len(s.keys) == 0 {
		return out
	}
	out.keys = append([]uint32(nil), s.keys...)
	out.cons = make([]tidContainer, len(s.cons))
	for i := range s.cons {
		c := &s.cons[i]
		out.cons[i] = tidContainer{n: c.n}
		if c.bits != nil {
			out.cons[i].bits = append([]uint64(nil), c.bits...)
		} else {
			out.cons[i].arr = append([]uint16(nil), c.arr...)
		}
	}
	return out
}

// Equal reports whether s and o hold the same members. Thanks to the
// canonical container invariant this is a direct payload comparison.
func (s TIDSet) Equal(o TIDSet) bool {
	if s.card != o.card || len(s.keys) != len(o.keys) {
		return false
	}
	for i := range s.keys {
		if s.keys[i] != o.keys[i] || s.cons[i].n != o.cons[i].n {
			return false
		}
		a, b := &s.cons[i], &o.cons[i]
		if (a.bits != nil) != (b.bits != nil) {
			return false
		}
		if a.bits != nil {
			for w := range a.bits {
				if a.bits[w] != b.bits[w] {
					return false
				}
			}
			continue
		}
		for j := range a.arr {
			if a.arr[j] != b.arr[j] {
				return false
			}
		}
	}
	return true
}

// And returns the intersection of s and o as a new set. Matching
// bitmap chunks intersect 64 members per AND.
func (s TIDSet) And(o TIDSet) TIDSet {
	var out TIDSet
	i, j := 0, 0
	for i < len(s.keys) && j < len(o.keys) {
		switch {
		case s.keys[i] < o.keys[j]:
			i++
		case s.keys[i] > o.keys[j]:
			j++
		default:
			if c := andContainers(&s.cons[i], &o.cons[j]); c.n > 0 {
				out.keys = append(out.keys, s.keys[i])
				out.cons = append(out.cons, c)
				out.card += c.n
			}
			i++
			j++
		}
	}
	return out
}

// AndCard returns the cardinality of the intersection without
// materialising it.
func (s TIDSet) AndCard(o TIDSet) int {
	n, i, j := 0, 0, 0
	for i < len(s.keys) && j < len(o.keys) {
		switch {
		case s.keys[i] < o.keys[j]:
			i++
		case s.keys[i] > o.keys[j]:
			j++
		default:
			n += andCardContainers(&s.cons[i], &o.cons[j])
			i++
			j++
		}
	}
	return n
}

func andContainers(a, b *tidContainer) tidContainer {
	switch {
	case a.bits != nil && b.bits != nil:
		bitsOut := make([]uint64, tidWords)
		n := 0
		for w := range bitsOut {
			bitsOut[w] = a.bits[w] & b.bits[w]
			n += bits.OnesCount64(bitsOut[w])
		}
		c := tidContainer{bits: bitsOut, n: n}
		c.canonical()
		return c
	case a.bits != nil:
		return andArrayBitmap(b.arr, a.bits)
	case b.bits != nil:
		return andArrayBitmap(a.arr, b.bits)
	default:
		// Both arrays: sorted merge, galloping when very unbalanced.
		x, y := a.arr, b.arr
		if len(x) > len(y) {
			x, y = y, x
		}
		arr := make([]uint16, 0, len(x))
		if len(y) >= 32*len(x) {
			lo := 0
			for _, v := range x {
				i := lo + sort.Search(len(y)-lo, func(i int) bool { return y[lo+i] >= v })
				if i < len(y) && y[i] == v {
					arr = append(arr, v)
					i++
				}
				lo = i
			}
		} else {
			i, j := 0, 0
			for i < len(x) && j < len(y) {
				switch {
				case x[i] < y[j]:
					i++
				case x[i] > y[j]:
					j++
				default:
					arr = append(arr, x[i])
					i++
					j++
				}
			}
		}
		return tidContainer{arr: arr, n: len(arr)}
	}
}

func andArrayBitmap(arr []uint16, bm []uint64) tidContainer {
	out := make([]uint16, 0, len(arr))
	for _, v := range arr {
		if bm[v>>6]&(uint64(1)<<(v&63)) != 0 {
			out = append(out, v)
		}
	}
	return tidContainer{arr: out, n: len(out)}
}

func andCardContainers(a, b *tidContainer) int {
	switch {
	case a.bits != nil && b.bits != nil:
		n := 0
		for w := range a.bits {
			n += bits.OnesCount64(a.bits[w] & b.bits[w])
		}
		return n
	case a.bits != nil:
		return countArrayInBitmap(b.arr, a.bits)
	case b.bits != nil:
		return countArrayInBitmap(a.arr, b.bits)
	default:
		n, i, j := 0, 0, 0
		for i < len(a.arr) && j < len(b.arr) {
			switch {
			case a.arr[i] < b.arr[j]:
				i++
			case a.arr[i] > b.arr[j]:
				j++
			default:
				n++
				i++
				j++
			}
		}
		return n
	}
}

func countArrayInBitmap(arr []uint16, bm []uint64) int {
	n := 0
	for _, v := range arr {
		if bm[v>>6]&(uint64(1)<<(v&63)) != 0 {
			n++
		}
	}
	return n
}

// Or returns the union of s and o as a new set.
func (s TIDSet) Or(o TIDSet) TIDSet {
	var out TIDSet
	i, j := 0, 0
	appendChunk := func(key uint32, c *tidContainer) {
		cp := tidContainer{n: c.n}
		if c.bits != nil {
			cp.bits = append([]uint64(nil), c.bits...)
		} else {
			cp.arr = append([]uint16(nil), c.arr...)
		}
		out.keys = append(out.keys, key)
		out.cons = append(out.cons, cp)
		out.card += cp.n
	}
	for i < len(s.keys) || j < len(o.keys) {
		switch {
		case j == len(o.keys) || (i < len(s.keys) && s.keys[i] < o.keys[j]):
			appendChunk(s.keys[i], &s.cons[i])
			i++
		case i == len(s.keys) || o.keys[j] < s.keys[i]:
			appendChunk(o.keys[j], &o.cons[j])
			j++
		default:
			c := orContainers(&s.cons[i], &o.cons[j])
			out.keys = append(out.keys, s.keys[i])
			out.cons = append(out.cons, c)
			out.card += c.n
			i++
			j++
		}
	}
	return out
}

func orContainers(a, b *tidContainer) tidContainer {
	if a.bits == nil && b.bits == nil && a.n+b.n <= tidArrayMax {
		arr := make([]uint16, 0, a.n+b.n)
		i, j := 0, 0
		for i < len(a.arr) && j < len(b.arr) {
			switch {
			case a.arr[i] < b.arr[j]:
				arr = append(arr, a.arr[i])
				i++
			case a.arr[i] > b.arr[j]:
				arr = append(arr, b.arr[j])
				j++
			default:
				arr = append(arr, a.arr[i])
				i++
				j++
			}
		}
		arr = append(arr, a.arr[i:]...)
		arr = append(arr, b.arr[j:]...)
		return tidContainer{arr: arr, n: len(arr)}
	}
	bitsOut := make([]uint64, tidWords)
	fill := func(c *tidContainer) {
		if c.bits != nil {
			for w := range bitsOut {
				bitsOut[w] |= c.bits[w]
			}
			return
		}
		for _, v := range c.arr {
			bitsOut[v>>6] |= uint64(1) << (v & 63)
		}
	}
	fill(a)
	fill(b)
	n := 0
	for _, w := range bitsOut {
		n += bits.OnesCount64(w)
	}
	c := tidContainer{bits: bitsOut, n: n}
	c.canonical()
	return c
}

func (c *tidContainer) clone() tidContainer {
	cp := tidContainer{n: c.n}
	if c.bits != nil {
		cp.bits = append([]uint64(nil), c.bits...)
	} else {
		cp.arr = append([]uint16(nil), c.arr...)
	}
	return cp
}

// Offset returns a new set with k >= 0 added to every member — the
// structural store's per-repetition TID shift. Members shift in
// ascending order, so the rebuild stays on Add's O(1) append fast
// path.
func (s TIDSet) Offset(k int) TIDSet {
	if k == 0 {
		return s.Clone()
	}
	var out TIDSet
	for tid := range s.Values() {
		out.Add(tid + k)
	}
	return out
}

// Cursor returns a monotone membership prober: successive Contains
// calls with ascending TIDs advance a chunk cursor instead of
// re-searching the key directory. The cursor is call-site-local
// state, so concurrent readers each take their own.
func (s *TIDSet) Cursor() TIDCursor { return TIDCursor{s: s} }

// TIDCursor probes one TIDSet with ascending TIDs. Probing out of
// order may miss members (it only moves forward).
type TIDCursor struct {
	s  *TIDSet
	ci int
}

// Contains reports membership of tid, assuming tid is >= every
// previously probed value.
func (c *TIDCursor) Contains(tid int) bool {
	key := uint32(tid >> tidChunkShift)
	s := c.s
	for c.ci < len(s.keys) && s.keys[c.ci] < key {
		c.ci++
	}
	if c.ci == len(s.keys) || s.keys[c.ci] != key {
		return false
	}
	return s.cons[c.ci].contains(uint16(tid & tidChunkMask))
}

// TIDChunk is one container of a TIDSet, exposed for serialisation
// (internal/store's bitset column encoding): exactly one of Arr/Bits
// is non-nil. The payload slices are the set's own storage and must
// be treated as read-only.
type TIDChunk struct {
	Key  uint32   // tid >> 16 of every member
	Arr  []uint16 // sorted low 16 bits (array container)
	Bits []uint64 // tidWords-long bitmap (bitmap container)
	N    int      // cardinality
}

// NumChunks returns the number of containers.
func (s TIDSet) NumChunks() int { return len(s.cons) }

// Chunks iterates the containers ascending by key.
func (s TIDSet) Chunks() iter.Seq[TIDChunk] {
	return func(yield func(TIDChunk) bool) {
		for i := range s.cons {
			c := &s.cons[i]
			if !yield(TIDChunk{Key: s.keys[i], Arr: c.arr, Bits: c.bits, N: c.n}) {
				return
			}
		}
	}
}

// AddChunk appends one decoded container: keys must arrive ascending
// and exactly one of Arr (strictly ascending) / Bits (length 1024)
// must be non-nil. The set takes ownership of the payload slice and
// restores the canonical array/bitmap threshold itself, so decoders
// need not trust the on-disk representation choice.
func (s *TIDSet) AddChunk(ch TIDChunk) error {
	if n := len(s.keys); n > 0 && s.keys[n-1] >= ch.Key {
		return fmt.Errorf("pattern: TID chunk key %d after %d (keys must ascend)", ch.Key, s.keys[n-1])
	}
	if (ch.Arr == nil) == (ch.Bits == nil) {
		return fmt.Errorf("pattern: TID chunk needs exactly one of array/bitmap payloads")
	}
	c := tidContainer{}
	if ch.Bits != nil {
		if len(ch.Bits) != tidWords {
			return fmt.Errorf("pattern: TID bitmap chunk has %d words, want %d", len(ch.Bits), tidWords)
		}
		c.bits = ch.Bits
		for _, w := range ch.Bits {
			c.n += bits.OnesCount64(w)
		}
	} else {
		for i := 1; i < len(ch.Arr); i++ {
			if ch.Arr[i-1] >= ch.Arr[i] {
				return fmt.Errorf("pattern: TID array chunk not strictly ascending at %d", i)
			}
		}
		c.arr = ch.Arr
		c.n = len(ch.Arr)
	}
	if c.n == 0 {
		return fmt.Errorf("pattern: empty TID chunk %d", ch.Key)
	}
	if c.arr != nil && c.n > tidArrayMax {
		c.toBitmap()
	}
	c.canonical()
	s.keys = append(s.keys, ch.Key)
	s.cons = append(s.cons, c)
	s.card += c.n
	return nil
}

// String renders the set exactly like fmt.Sprint of the ascending
// []int it replaces (e.g. "[0 1 5]"), keeping logs and test output
// stable across the representation change.
func (s TIDSet) String() string {
	b := make([]byte, 0, 2+8*s.card)
	b = append(b, '[')
	first := true
	for tid := range s.Values() {
		if !first {
			b = append(b, ' ')
		}
		first = false
		b = strconv.AppendInt(b, int64(tid), 10)
	}
	return string(append(b, ']'))
}
