package experiments

import (
	"math"
	"testing"

	"secureproc/internal/stats"
)

// fidelityFloor bounds one paper series' distance from its measured twin at
// the golden scale: the Spearman rank correlation may not fall below rho,
// and the mean absolute deviation (in the figure's own unit) may not rise
// above mad.
type fidelityFloor struct{ rho, mad float64 }

// fidelityFloors holds each figure's paper series at the value the goldens
// reach today, rounded by at most 0.01 toward failing. A change that moves
// a figure further from the paper fails TestPaperFidelityFloors even when
// `-update` rewrites the goldens to match; lowering a floor is a deliberate,
// reviewed edit of this table.
var fidelityFloors = map[string]map[string]fidelityFloor{
	"fig3": {"XOM (paper)": {0.95, 1.88}},
	"fig5": {
		"XOM (paper)":        {0.95, 1.88},
		"SNC-NoRepl (paper)": {0.80, 0.63},
		"SNC-LRU (paper)":    {0.60, 0.58},
	},
	"fig6": {
		"32KB (paper)":  {0.60, 1.88},
		"64KB (paper)":  {0.60, 0.58},
		"128KB (paper)": {0.38, 0.31},
	},
	"fig7": {
		"fully assoc (paper)": {0.60, 0.58},
		"32-way (paper)":      {0.61, 0.67},
	},
	"fig8": {
		"XOM-256KL2 (paper)":           {0.95, 0.02},
		"XOM-384KL2 (paper)":           {0.79, 0.04},
		"SNC-32way-LRU-256KL2 (paper)": {0.48, 0.01},
	},
	"fig9": {"traffic % (paper)": {0.30, 1.73}},
	"fig10": {
		"XOM (paper)":        {0.95, 3.81},
		"SNC-NoRepl (paper)": {0.81, 1.18},
		"SNC-LRU (paper)":    {0.60, 0.52},
	},
}

// meanAbsDev is the mean |measured − paper| over the labels both series
// carry.
func meanAbsDev(measured, paper stats.Series) float64 {
	var sum float64
	n := 0
	for i, l := range measured.Labels {
		if p, ok := paper.Value(l); ok {
			sum += math.Abs(measured.Values[i] - p)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TestPaperFidelityFloors gates the reproduction's distance from the paper:
// for every figure and paper series, the golden-scale Spearman ρ and mean
// absolute deviation against paperdata.go stay within fidelityFloors, and
// every paper series has a floor.
func TestPaperFidelityFloors(t *testing.T) {
	frs := NewRunner(goldenScale).All()
	seen := 0
	for i, fr := range frs {
		if len(fr.Paper) == 0 || len(fr.Paper) != len(fr.Measured) {
			continue
		}
		name := Names()[i]
		for j, paper := range fr.Paper {
			floor, ok := fidelityFloors[name][paper.Name]
			if !ok {
				t.Errorf("%s %q: no fidelity floor", name, paper.Name)
				continue
			}
			seen++
			if rho := stats.SpearmanRank(paper, fr.Measured[j]); rho < floor.rho {
				t.Errorf("%s %q: Spearman ρ %.4f below its floor %.2f", name, paper.Name, rho, floor.rho)
			}
			if mad := meanAbsDev(fr.Measured[j], paper); mad > floor.mad {
				t.Errorf("%s %q: mean absolute deviation %.4f above its ceiling %.2f", name, paper.Name, mad, floor.mad)
			}
		}
	}
	want := 0
	for _, m := range fidelityFloors {
		want += len(m)
	}
	if seen != want {
		t.Errorf("checked %d paper series, but fidelityFloors lists %d", seen, want)
	}
}
