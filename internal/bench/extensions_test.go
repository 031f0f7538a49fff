package bench

import (
	"context"
	"testing"

	"repro"
)

func TestUpdateRatioSweep(t *testing.T) {
	tab, err := UpdateRatio(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 || len(tab.Columns) != 3 {
		t.Fatalf("shape wrong: %d rows %d cols", len(tab.Rows), len(tab.Columns))
	}
	// The paper's claim: all three update ratios show the same trend —
	// savings at the highest capacity beat savings at the lowest.
	for _, col := range tab.Columns {
		lo, _ := tab.Value(0, col)
		hi, _ := tab.Value(len(tab.Rows)-1, col)
		if hi <= lo {
			t.Fatalf("%s: no capacity trend (%.2f -> %.2f)", col, lo, hi)
		}
	}
	// Fewer updates leave more to save: at full capacity, U=5%% >= U=20%%.
	u5, _ := tab.Value(len(tab.Rows)-1, "U=5%")
	u20, _ := tab.Value(len(tab.Rows)-1, "U=20%")
	if u5 < u20 {
		t.Fatalf("U=5%% (%.2f) should outsave U=20%% (%.2f)", u5, u20)
	}
}

func TestRegionsExperiment(t *testing.T) {
	tab, err := Regions(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("got %d region counts", len(tab.Rows))
	}
	// Hierarchical savings are identical across region counts (they all
	// equal flat AGT-RAM).
	first, _ := tab.Value(0, "hier savings")
	for i := range tab.Rows {
		h, _ := tab.Value(i, "hier savings")
		if h != first {
			t.Fatalf("hierarchical savings vary: %.4f vs %.4f", h, first)
		}
		// Failure runs keep working.
		f, _ := tab.Value(i, "fail savings")
		if f <= 0 {
			t.Fatalf("row %d: failed-top run saved %.2f", i, f)
		}
	}
	// More regions -> fewer autonomous epochs.
	e1, _ := tab.Value(0, "auto epochs")
	e16, _ := tab.Value(len(tab.Rows)-1, "auto epochs")
	if e16 >= e1 {
		t.Fatalf("autonomous epochs should shrink with regions: %v -> %v", e1, e16)
	}
}

func TestAdaptiveExperiment(t *testing.T) {
	tab, err := Adaptive(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 { // 6 epochs + mean
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	meanRow := len(tab.Rows) - 1
	mig, _ := tab.Value(meanRow, "migrating savings")
	fro, _ := tab.Value(meanRow, "frozen savings")
	if mig <= fro {
		t.Fatalf("migration (%.2f%%) should beat frozen placement (%.2f%%)", mig, fro)
	}
	// Drift must trigger actual migration after epoch 0.
	var moves float64
	for e := 1; e < meanRow; e++ {
		d, _ := tab.Value(e, "dropped")
		a, _ := tab.Value(e, "added")
		moves += d + a
	}
	if moves == 0 {
		t.Fatal("no migration happened under drift")
	}
}

func TestMultiSeed(t *testing.T) {
	cfg := tiny()
	tab, err := MultiSeed(context.Background(), cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(repro.Methods()) {
		t.Fatalf("got %d method rows, want %d", len(tab.Rows), len(repro.Methods()))
	}
	_ = cfg
	var totalWins float64
	for i, row := range tab.Rows {
		mean, _ := tab.Value(i, "mean")
		std, _ := tab.Value(i, "std")
		if mean <= 0 {
			t.Fatalf("%s: mean %.2f", row.Label, mean)
		}
		if std < 0 {
			t.Fatalf("%s: negative std", row.Label)
		}
		w, _ := tab.Value(i, "wins")
		totalWins += w
	}
	if totalWins < 4 {
		t.Fatalf("only %v wins across 4 runs", totalWins)
	}
	// The paper's claim: AGT-RAM is among the most frequent winners of the
	// six methods it compares. The Glauber annealing extension sits outside
	// that claim and may legitimately out-win it.
	var agtWins, maxWins float64
	for i, row := range tab.Rows {
		if row.Label == repro.MethodLabel(repro.Glauber) {
			continue
		}
		w, _ := tab.Value(i, "wins")
		if row.Label == "AGT-RAM" {
			agtWins = w
		}
		if w > maxWins {
			maxWins = w
		}
	}
	if agtWins < maxWins {
		t.Fatalf("AGT-RAM won %v of 4, best method won %v", agtWins, maxWins)
	}
}

func TestOptimalityGap(t *testing.T) {
	cfg := tiny()
	tab, err := OptimalityGap(context.Background(), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(repro.Methods()) {
		t.Fatalf("got %d rows, want %d", len(tab.Rows), len(repro.Methods()))
	}
	for i, row := range tab.Rows {
		mean, _ := tab.Value(i, "mean gap %")
		if mean < 0 {
			t.Fatalf("%s: negative gap %.3f — heuristic beat the proven optimum", row.Label, mean)
		}
		maxg, _ := tab.Value(i, "max gap %")
		if maxg < mean {
			t.Fatalf("%s: max %.3f below mean %.3f", row.Label, maxg, mean)
		}
	}
}
