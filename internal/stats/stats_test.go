package stats

import (
	"strings"
	"sync"
	"testing"
)

func TestRatioPct(t *testing.T) {
	if Ratio(1, 4) != 0.25 || Ratio(1, 0) != 0 {
		t.Error("Ratio")
	}
	if Pct(1, 4) != 25 {
		t.Error("Pct")
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("Title", "name", "v1", "v2")
	tb.AddRow("alpha", "1")
	tb.AddRow("beta", "2.5", "3.5")
	out := tb.String()
	for _, want := range []string{"Title", "name", "alpha", "beta", "2.5", "3.5", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("s", []string{"a", "b", "c"}, []float64{1, 3, 2})
	if s.Mean() != 2 {
		t.Error("Mean")
	}
	if v, ok := s.Value("b"); !ok || v != 3 {
		t.Error("Value")
	}
	if _, ok := s.Value("zz"); ok {
		t.Error("missing label found")
	}
	r := s.Relabel("t")
	if r.Name != "t" || r.Mean() != 2 {
		t.Error("Relabel")
	}
	var empty Series
	if empty.Mean() != 0 {
		t.Error("empty mean")
	}
}

func TestSeriesPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewSeries("bad", []string{"a"}, []float64{1, 2})
}

func TestSpearmanRank(t *testing.T) {
	labels := []string{"a", "b", "c", "d"}
	x := NewSeries("x", labels, []float64{1, 2, 3, 4})
	same := NewSeries("y", labels, []float64{10, 20, 30, 40})
	rev := NewSeries("z", labels, []float64{4, 3, 2, 1})
	if rho := SpearmanRank(x, same); rho < 0.999 {
		t.Errorf("identical order: rho=%v", rho)
	}
	if rho := SpearmanRank(x, rev); rho > -0.999 {
		t.Errorf("reversed order: rho=%v", rho)
	}
	tiny := NewSeries("t", []string{"a"}, []float64{1})
	if SpearmanRank(tiny, tiny) != 0 {
		t.Error("degenerate series should return 0")
	}
}

// TestSeriesConcurrentReads exercises every read-only Series method from
// several goroutines sharing the same underlying slices (as the experiment
// worker pool does with the paper series); under -race this locks in the
// documented immutable/concurrent-read contract.
func TestSeriesConcurrentReads(t *testing.T) {
	labels := []string{"a", "b", "c", "d"}
	s := NewSeries("shared", labels, []float64{4, 1, 3, 2})
	alias := s.Relabel("alias") // shares the slices on purpose
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s.Mean() != 2.5 {
				t.Error("Mean changed under concurrent reads")
			}
			if v, ok := alias.Value("c"); !ok || v != 3 {
				t.Error("Value changed under concurrent reads")
			}
			if rho := SpearmanRank(s, alias); rho < 0.999 {
				t.Errorf("SpearmanRank(s, alias) = %v, want 1", rho)
			}
		}()
	}
	wg.Wait()
}
