package dtree

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

var attrs = []string{"weight", "dist", "mode"}

// modeData builds rows where mode is fully determined by weight, plus
// a configurable number of noise rows.
func modeData(n, noise int, seed int64) []Instance {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]Instance, 0, n)
	for i := 0; i < n; i++ {
		w := "light"
		m := "LTL"
		if rng.Intn(2) == 0 {
			w, m = "heavy", "TL"
		}
		d := []string{"short", "medium", "long"}[rng.Intn(3)]
		if i < noise {
			if m == "LTL" {
				m = "TL"
			} else {
				m = "LTL"
			}
		}
		rows = append(rows, Instance{w, d, m})
	}
	return rows
}

func TestTrainPerfectSplit(t *testing.T) {
	rows := modeData(100, 0, 1)
	tree, err := Train(attrs, rows, "mode", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Accuracy(rows); got != 1.0 {
		t.Errorf("training accuracy = %v, want 1.0", got)
	}
	if tree.RootAttr() != "weight" {
		t.Errorf("root = %s, want weight", tree.RootAttr())
	}
	if tree.Depth() != 1 {
		t.Errorf("depth = %d, want 1", tree.Depth())
	}
}

func TestTrainWithNoise(t *testing.T) {
	rows := modeData(200, 8, 2) // 4% noise, like the generator
	tree, err := Train(attrs, rows, "mode", Options{})
	if err != nil {
		t.Fatal(err)
	}
	acc := tree.Accuracy(rows)
	if acc < 0.9 || acc > 1.0 {
		t.Errorf("accuracy = %v, want ~0.96", acc)
	}
	if tree.RootAttr() != "weight" {
		t.Errorf("root = %s, want weight", tree.RootAttr())
	}
}

func TestPredictUnseenValueFallsBack(t *testing.T) {
	rows := modeData(50, 0, 3)
	tree, err := Train(attrs, rows, "mode", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// "featherweight" was never seen: prediction falls back to the
	// node majority rather than panicking.
	got := tree.Predict(Instance{"featherweight", "short", "?"})
	if got != "LTL" && got != "TL" {
		t.Errorf("fallback prediction = %q", got)
	}
}

func TestCrossValidate(t *testing.T) {
	rows := modeData(200, 8, 4)
	acc, err := CrossValidate(attrs, rows, "mode", 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 || acc > 1.0 {
		t.Errorf("cv accuracy = %v", acc)
	}
	if _, err := CrossValidate(attrs, rows, "mode", 1, Options{}); err == nil {
		t.Error("k=1 should error")
	}
	if _, err := CrossValidate(attrs, rows[:3], "mode", 5, Options{}); err == nil {
		t.Error("k > len should error")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(attrs, nil, "mode", Options{}); err == nil {
		t.Error("no data should error")
	}
	if _, err := Train(attrs, modeData(10, 0, 5), "nope", Options{}); err == nil {
		t.Error("unknown class should error")
	}
	if _, err := Train(attrs, []Instance{{"a", "b"}}, "mode", Options{}); err == nil {
		t.Error("ragged row should error")
	}
}

func TestMinLeaf(t *testing.T) {
	rows := modeData(200, 20, 6)
	bigLeaf, err := Train(attrs, rows, "mode", Options{MinLeaf: 150})
	if err != nil {
		t.Fatal(err)
	}
	if bigLeaf.Depth() != 0 {
		t.Errorf("huge MinLeaf should force a single leaf, depth=%d", bigLeaf.Depth())
	}
}

func TestGainRatioAvoidsHighArityBias(t *testing.T) {
	// An "id"-like attribute with unique values perfectly splits the
	// training data but has enormous split info; gain ratio with
	// usable-branch filtering must prefer the real attribute.
	schema := []string{"id", "weight", "mode"}
	var rows []Instance
	for i := 0; i < 60; i++ {
		w, m := "light", "LTL"
		if i%2 == 0 {
			w, m = "heavy", "TL"
		}
		rows = append(rows, Instance{fmt.Sprint("id", i), w, m})
	}
	tree, err := Train(schema, rows, "mode", Options{MinLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tree.RootAttr() != "weight" {
		t.Errorf("root = %s, want weight (id split should be rejected)", tree.RootAttr())
	}
}

func TestRender(t *testing.T) {
	rows := modeData(50, 0, 7)
	tree, err := Train(attrs, rows, "mode", Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := tree.Render()
	if !strings.Contains(out, "weight = ") || !strings.Contains(out, "=>") {
		t.Errorf("render:\n%s", out)
	}
	if tree.NumLeaves() < 2 {
		t.Errorf("leaves = %d", tree.NumLeaves())
	}
}
