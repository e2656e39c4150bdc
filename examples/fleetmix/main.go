// Fleet mix analysis: the Section 7 conventional-mining pipeline.
// Flatten the OD transactions into tables and answer three
// operational questions with classic miners:
//
//  1. What drives the TL / LTL mode split? (decision tree)
//  2. Which lane geographies dominate? (association rules)
//  3. What service tiers exist? (EM clustering: short-haul,
//     long-haul, and the air-freight outliers)
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"tnkd"
	"tnkd/internal/core"
	"tnkd/internal/mining/apriori"
	"tnkd/internal/mining/dtree"
	"tnkd/internal/mining/emcluster"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's report to w.
func run(w io.Writer) error {
	data := tnkd.GenerateDataset(tnkd.ScaledConfig(0.025))
	fmt.Fprintln(w, "dataset:", data.Summarize())

	// 1. Mode classification (Section 7.2).
	attrs, raw := core.Discretize(data, core.DefaultDiscretizeConfig())
	rows := make([]dtree.Instance, len(raw))
	for i, r := range raw {
		rows[i] = dtree.Instance(r)
	}
	tree, err := dtree.Train(attrs, rows, "TRANS_MODE", dtree.Options{MinLeaf: 2})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nTRANS_MODE tree: root=%s depth=%d leaves=%d training accuracy=%.1f%%\n",
		tree.RootAttr(), tree.Depth(), tree.NumLeaves(), tree.Accuracy(rows)*100)

	// 2. Geography rules (Section 7.1, Experiment 2).
	items := make([]apriori.Itemset, len(raw))
	for i, r := range raw {
		items[i] = apriori.Itemset{
			{Attr: "ORIGIN_LATITUDE", Value: r[0]},
			{Attr: "ORIGIN_LONGITUDE", Value: r[1]},
		}
	}
	rules, err := apriori.Mine(items, apriori.Options{MinSupport: 0.1, MinConfidence: 0.75, MaxLen: 2})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\ntop origin-geography rules:")
	for i, r := range rules.Rules {
		if i == 3 {
			break
		}
		fmt.Fprintln(w, " ", r)
	}

	// 3. Service tiers (Section 7.3 / Figures 5-6).
	numAttrs, matrix := core.NumericMatrix(data)
	opts := emcluster.DefaultOptions()
	model, asg, err := emcluster.Fit(numAttrs, matrix, opts)
	if err != nil {
		return err
	}
	dist, _ := model.ClusterMeans("TOTAL_DISTANCE")
	hours, _ := model.ClusterMeans("MOVE_TRANSIT_HOURS")
	fmt.Fprintf(w, "\nEM clusters (k=%d):\n", model.K)
	for k := 0; k < model.K; k++ {
		if asg.Sizes[k] == 0 {
			continue
		}
		tier := "short-haul"
		switch {
		case dist[k] > 3000 && hours[k] < 24:
			tier = "AIR FREIGHT OUTLIER"
		case dist[k] >= 600:
			tier = "long-haul"
		}
		fmt.Fprintf(w, "  cluster %d: n=%-5d mean distance %6.0f mi, transit %5.1f h  -> %s\n",
			k, asg.Sizes[k], dist[k], hours[k], tier)
	}
	return nil
}
