// Package dtree implements a C4.5-style decision-tree classifier
// over nominal attributes (gain-ratio splits, minimum-leaf stopping),
// the stand-in for Weka's J4.8 used in Section 7.2 of the paper.
package dtree

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Instance is one row: values indexed like the schema's attributes.
type Instance []string

// Options configures training.
type Options struct {
	// MinLeaf is the minimum number of instances per leaf (default 2,
	// J4.8's -M 2).
	MinLeaf int
}

// Tree is a trained decision tree.
type Tree struct {
	Attrs      []string
	ClassAttr  string
	classIndex int
	root       *node
}

type node struct {
	// Leaf fields.
	leaf  bool
	class string
	count int // training instances reaching the node
	// Internal fields.
	attr     int // attribute index tested
	children map[string]*node
	fallback string // majority class for unseen values
}

// Train builds a tree predicting classAttr from the remaining
// attributes. attrs names each Instance column.
func Train(attrs []string, data []Instance, classAttr string, opts Options) (*Tree, error) {
	ci := -1
	for i, a := range attrs {
		if a == classAttr {
			ci = i
			break
		}
	}
	if ci == -1 {
		return nil, fmt.Errorf("dtree: class attribute %q not in schema %v", classAttr, attrs)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("dtree: no training data")
	}
	for i, row := range data {
		if len(row) != len(attrs) {
			return nil, fmt.Errorf("dtree: row %d has %d values, schema has %d", i, len(row), len(attrs))
		}
	}
	if opts.MinLeaf < 1 {
		opts.MinLeaf = 2
	}
	t := &Tree{Attrs: attrs, ClassAttr: classAttr, classIndex: ci}
	avail := make([]bool, len(attrs))
	for i := range attrs {
		avail[i] = i != ci
	}
	t.root = t.build(data, avail, opts)
	return t, nil
}

func (t *Tree) build(data []Instance, avail []bool, opts Options) *node {
	majority, pure := t.majorityClass(data)
	if pure || len(data) < 2*opts.MinLeaf {
		return &node{leaf: true, class: majority, count: len(data)}
	}
	bestAttr, ok := t.bestSplit(data, avail, opts)
	if !ok {
		return &node{leaf: true, class: majority, count: len(data)}
	}
	groups := groupBy(data, bestAttr)
	childAvail := append([]bool(nil), avail...)
	childAvail[bestAttr] = false
	n := &node{attr: bestAttr, children: make(map[string]*node, len(groups)), fallback: majority, count: len(data)}
	for v, rows := range groups {
		n.children[v] = t.build(rows, childAvail, opts)
	}
	return n
}

func (t *Tree) majorityClass(data []Instance) (string, bool) {
	counts := make(map[string]int)
	for _, row := range data {
		counts[row[t.classIndex]]++
	}
	best, bestN := "", -1
	keys := make([]string, 0, len(counts))
	for c := range counts {
		keys = append(keys, c)
	}
	sort.Strings(keys)
	for _, c := range keys {
		if counts[c] > bestN {
			best, bestN = c, counts[c]
		}
	}
	return best, len(counts) == 1
}

// bestSplit picks the attribute with the highest gain ratio among
// attributes with above-average information gain (Quinlan's C4.5
// heuristic avoiding high-arity bias).
func (t *Tree) bestSplit(data []Instance, avail []bool, opts Options) (int, bool) {
	baseEnt := t.entropy(data)
	type cand struct {
		attr  int
		gain  float64
		ratio float64
	}
	var cands []cand
	for ai, ok := range avail {
		if !ok {
			continue
		}
		groups := groupBy(data, ai)
		if len(groups) < 2 {
			continue
		}
		// Require that a split produces at least two usable branches.
		usable := 0
		for _, rows := range groups {
			if len(rows) >= opts.MinLeaf {
				usable++
			}
		}
		if usable < 2 {
			continue
		}
		cond, split := 0.0, 0.0
		for _, rows := range groups {
			p := float64(len(rows)) / float64(len(data))
			cond += p * t.entropy(rows)
			split -= p * math.Log2(p)
		}
		gain := baseEnt - cond
		if gain <= 1e-12 || split <= 1e-12 {
			continue
		}
		cands = append(cands, cand{attr: ai, gain: gain, ratio: gain / split})
	}
	if len(cands) == 0 {
		return 0, false
	}
	avgGain := 0.0
	for _, c := range cands {
		avgGain += c.gain
	}
	avgGain /= float64(len(cands))
	best := -1
	bestRatio := -1.0
	sort.Slice(cands, func(i, j int) bool { return cands[i].attr < cands[j].attr })
	for _, c := range cands {
		if c.gain+1e-12 >= avgGain && c.ratio > bestRatio {
			best, bestRatio = c.attr, c.ratio
		}
	}
	if best == -1 {
		return 0, false
	}
	return best, true
}

func (t *Tree) entropy(data []Instance) float64 {
	counts := make(map[string]int)
	for _, row := range data {
		counts[row[t.classIndex]]++
	}
	ent := 0.0
	for _, c := range counts {
		p := float64(c) / float64(len(data))
		ent -= p * math.Log2(p)
	}
	return ent
}

func groupBy(data []Instance, attr int) map[string][]Instance {
	groups := make(map[string][]Instance)
	for _, row := range data {
		groups[row[attr]] = append(groups[row[attr]], row)
	}
	return groups
}

// Predict classifies one instance.
func (t *Tree) Predict(row Instance) string {
	n := t.root
	for !n.leaf {
		child, ok := n.children[row[n.attr]]
		if !ok {
			return n.fallback
		}
		n = child
	}
	return n.class
}

// Accuracy evaluates the tree on labeled data.
func (t *Tree) Accuracy(data []Instance) float64 {
	if len(data) == 0 {
		return 0
	}
	correct := 0
	for _, row := range data {
		if t.Predict(row) == row[t.classIndex] {
			correct++
		}
	}
	return float64(correct) / float64(len(data))
}

// RootAttr returns the attribute tested at the root, or "" for a
// single-leaf tree. The paper reports that J4.8's tree "first splits
// on the GROSS_WEIGHT attribute".
func (t *Tree) RootAttr() string {
	if t.root.leaf {
		return ""
	}
	return t.Attrs[t.root.attr]
}

// Depth returns the tree depth (a single leaf has depth 0).
func (t *Tree) Depth() int { return depthOf(t.root) }

func depthOf(n *node) int {
	if n.leaf {
		return 0
	}
	max := 0
	for _, c := range n.children {
		if d := depthOf(c); d > max {
			max = d
		}
	}
	return max + 1
}

// NumLeaves counts the leaves.
func (t *Tree) NumLeaves() int { return leavesOf(t.root) }

func leavesOf(n *node) int {
	if n.leaf {
		return 1
	}
	total := 0
	for _, c := range n.children {
		total += leavesOf(c)
	}
	return total
}

// CrossValidate runs k-fold cross-validation and returns mean
// accuracy. Folds are contiguous blocks; callers should pre-shuffle
// if the data is ordered.
func CrossValidate(attrs []string, data []Instance, classAttr string, k int, opts Options) (float64, error) {
	if k < 2 || k > len(data) {
		return 0, fmt.Errorf("dtree: k=%d invalid for %d rows", k, len(data))
	}
	total := 0.0
	for fold := 0; fold < k; fold++ {
		lo := fold * len(data) / k
		hi := (fold + 1) * len(data) / k
		test := data[lo:hi]
		train := make([]Instance, 0, len(data)-len(test))
		train = append(train, data[:lo]...)
		train = append(train, data[hi:]...)
		tree, err := Train(attrs, train, classAttr, opts)
		if err != nil {
			return 0, err
		}
		total += tree.Accuracy(test)
	}
	return total / float64(k), nil
}

// Render prints the tree in Weka's indented text form.
func (t *Tree) Render() string {
	var b strings.Builder
	t.render(&b, t.root, 0)
	return b.String()
}

func (t *Tree) render(b *strings.Builder, n *node, indent int) {
	pad := strings.Repeat("|   ", indent)
	if n.leaf {
		fmt.Fprintf(b, "%s=> %s (%d)\n", pad, n.class, n.count)
		return
	}
	values := make([]string, 0, len(n.children))
	for v := range n.children {
		values = append(values, v)
	}
	sort.Strings(values)
	for _, v := range values {
		fmt.Fprintf(b, "%s%s = %s\n", pad, t.Attrs[n.attr], v)
		t.render(b, n.children[v], indent+1)
	}
}
