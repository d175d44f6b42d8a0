package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"secureproc/internal/sim"
	"secureproc/internal/stats"
)

// expScale keeps the experiment tests quick; the shapes assert at this
// scale too.
const expScale = 0.1

func TestPaperDataComplete(t *testing.T) {
	series := []stats.Series{
		PaperFig3XOM, PaperFig5NoRepl, PaperFig5LRU,
		PaperFig6SNC32, PaperFig6SNC64, PaperFig6SNC128,
		PaperFig7FullAssoc, PaperFig7Way32,
		PaperFig8XOM256, PaperFig8XOM384, PaperFig8SNC,
		PaperFig9Traffic,
		PaperFig10XOM, PaperFig10NoRepl, PaperFig10LRU,
	}
	for _, s := range series {
		if len(s.Labels) != 11 {
			t.Errorf("%s: %d labels, want 11", s.Name, len(s.Labels))
		}
	}
	// Spot checks against the paper's quoted headline numbers.
	if m := PaperFig3XOM.Mean(); m < 16.5 || m > 17.0 {
		t.Errorf("paper XOM average %.2f, expected ~16.76", m)
	}
	if m := PaperFig5LRU.Mean(); m < 1.2 || m > 1.4 {
		t.Errorf("paper LRU average %.2f, expected ~1.28", m)
	}
	if v, _ := PaperFig3XOM.Value("mcf"); v != 34.76 {
		t.Errorf("paper mcf XOM = %v", v)
	}
}

// figure regenerates one figure, failing the test on error.
func figure(t testing.TB, r *Runner, name string) FigureResult {
	t.Helper()
	fr, err := r.Figure(context.Background(), name)
	if err != nil {
		t.Fatalf("Figure(%q): %v", name, err)
	}
	return fr
}

func TestByNameDispatch(t *testing.T) {
	r := NewRunner(expScale)
	for _, n := range Names() {
		if _, err := r.Figure(context.Background(), n); err != nil {
			t.Errorf("Figure(%q): %v", n, err)
		}
	}
	for _, alias := range []string{"FIG5", "figure5", "5", "figurec1", "C1"} {
		if _, err := r.Figure(context.Background(), alias); err != nil {
			t.Errorf("Figure(%q): %v", alias, err)
		}
	}
	if _, err := r.Figure(context.Background(), "fig4"); !errors.Is(err, ErrUnknownFigure) {
		t.Errorf("Figure(fig4) = %v, want ErrUnknownFigure: fig4 is an architecture diagram, not a data figure", err)
	}
}

// TestFigureCancelledContext: a figure requested under a cancelled context
// returns the cancellation without simulating, on both the sequential and
// the dispatched fan-out path, for a key-sweep figure and for Figure C1.
func TestFigureCancelledContext(t *testing.T) {
	for _, jobs := range []int{1, 2} {
		for _, name := range []string{"fig3", "figC1"} {
			r := NewRunner(raceScale)
			r.Jobs = jobs
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := r.Figure(ctx, name); err != ctx.Err() {
				t.Errorf("jobs=%d: Figure(%s) on a cancelled context = %v, want %v", jobs, name, err, ctx.Err())
			}
			if n, st := r.Simulations(), r.DispatchStats(); n != 0 || st.Completed != st.Submitted {
				t.Errorf("jobs=%d: Figure(%s) ran %d simulations; dispatch %+v", jobs, name, n, st)
			}
		}
	}
}

func TestFigure5ShapesHold(t *testing.T) {
	fr := figure(t, NewRunner(expScale), "fig5")
	if len(fr.Measured) != 3 || len(fr.Paper) != 3 {
		t.Fatal("figure 5 needs 3 series")
	}
	xom, nr, lru := fr.Measured[0], fr.Measured[1], fr.Measured[2]
	// Headline: LRU << NoRepl << XOM on average.
	if !(lru.Mean() < nr.Mean() && nr.Mean() < xom.Mean()) {
		t.Errorf("averages out of order: lru=%.2f nr=%.2f xom=%.2f", lru.Mean(), nr.Mean(), xom.Mean())
	}
	// Per-benchmark sanity: LRU never (meaningfully) above XOM.
	for i, b := range Benchmarks {
		lv, xv := lru.Values[i], xom.Values[i]
		if lv > xv+1 {
			t.Errorf("%s: LRU %.2f above XOM %.2f", b, lv, xv)
		}
	}
	// The measured XOM ordering should correlate strongly with the paper.
	if rho := stats.SpearmanRank(fr.Paper[0], xom); rho < 0.7 {
		t.Errorf("XOM rank correlation with paper too low: %.2f", rho)
	}
}

func TestFigure10XOMDegrades(t *testing.T) {
	r := NewRunner(expScale)
	f5 := figure(t, r, "fig5")
	f10 := figure(t, r, "fig10")
	xom50 := f5.Measured[0].Mean()
	xom102 := f10.Measured[0].Mean()
	lru50 := f5.Measured[2].Mean()
	lru102 := f10.Measured[2].Mean()
	if xom102 < 1.5*xom50 {
		t.Errorf("102-cycle crypto should roughly double XOM: %.2f -> %.2f", xom50, xom102)
	}
	if lru102 > lru50+1.5 {
		t.Errorf("OTP should be insensitive to crypto latency: %.2f -> %.2f", lru50, lru102)
	}
}

func TestFigure8SNCBeatsBiggerL2(t *testing.T) {
	fr := figure(t, NewRunner(expScale), "fig8")
	xom384 := fr.Measured[1].Mean()
	sncRow := fr.Measured[2].Mean()
	if sncRow >= xom384 {
		t.Errorf("equal-area SNC (%.3f) should beat the larger-L2 XOM (%.3f)", sncRow, xom384)
	}
	// gcc/vortex with the bigger L2 should be at or below baseline time
	// (the paper's speedup observation).
	for _, b := range []string{"gcc", "vortex"} {
		if v, _ := fr.Measured[1].Value(b); v > 1.02 {
			t.Errorf("%s XOM-384K normalized time %.3f, expected near/below 1", b, v)
		}
	}
}

func TestFigure9TrafficSmall(t *testing.T) {
	fr := figure(t, NewRunner(expScale), "fig9")
	m := fr.Measured[0]
	for i, b := range Benchmarks {
		if m.Values[i] > 15 {
			t.Errorf("%s: SNC traffic %.2f%% implausibly high", b, m.Values[i])
		}
	}
	if m.Mean() > 8 {
		t.Errorf("average SNC traffic %.2f%% too high (paper: 0.31%%)", m.Mean())
	}
}

func TestRenderContainsEverything(t *testing.T) {
	fr := figure(t, NewRunner(expScale), "fig3")
	out := fr.Render()
	for _, want := range []string{"Figure 3", "ammp", "vpr", "average", "rank correlation"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(expScale)
	figure(t, r, "fig3")
	n1 := r.MemoStats().Size
	figure(t, r, "fig3") // same runs again
	if r.MemoStats().Size != n1 {
		t.Error("figure rerun added cache entries")
	}
	figure(t, r, "fig5") // shares baseline+XOM with fig3
	if r.MemoStats().Size != n1+22 {
		t.Errorf("figure 5 should add exactly 22 runs (NoRepl+LRU), got %d new", r.MemoStats().Size-n1)
	}
	if len(r.SortedCacheKeys()) != r.MemoStats().Size {
		t.Error("cache key listing inconsistent")
	}
}

// TestFigureSimulatesEachKeyOnce: a memo smaller than a figure's key set
// evicts most of the sweep's results before the figure is assembled, and
// the figure must still be built from the sweep's own results, not by
// simulating evicted keys again. It renders exactly as through an
// unbounded memo.
func TestFigureSimulatesEachKeyOnce(t *testing.T) {
	r := NewRunner(cpScale)
	r.Capacity = 2
	fr, err := r.Figure(context.Background(), "fig3")
	if err != nil {
		t.Fatal(err)
	}
	var ks keySet
	for _, f := range figureSpecs() {
		if f.short == "fig3" {
			f.addKeys(&ks)
		}
	}
	if got, want := r.Simulations(), int64(len(ks.keys)); got != want {
		t.Errorf("fig3 at Capacity 2 ran %d simulations for %d distinct keys", got, want)
	}
	want, err := NewRunner(cpScale).Figure(context.Background(), "fig3")
	if err != nil {
		t.Fatal(err)
	}
	if fr.Render() != want.Render() {
		t.Errorf("fig3 at Capacity 2 rendered differently:\n%s\nwant:\n%s", fr.Render(), want.Render())
	}
}

func TestAllReturnsEveryFigure(t *testing.T) {
	// Smoke test at tiny scale: all figures build; the seven paper figures
	// carry paper series, the integrity and multiprogramming extensions are
	// measured-only.
	frs := NewRunner(0.05).All()
	if len(frs) != 9 {
		t.Fatalf("got %d figures, want 9", len(frs))
	}
	for _, fr := range frs {
		if len(fr.Measured) == 0 {
			t.Errorf("%s: no measured series", fr.ID)
			continue
		}
		if fr.ID == "Figure I1" || fr.ID == "Figure C1" {
			if len(fr.Paper) != 0 {
				t.Errorf("%s: unexpected paper series", fr.ID)
			}
			continue
		}
		if len(fr.Measured) != len(fr.Paper) {
			t.Errorf("%s: series mismatch", fr.ID)
		}
	}
}

func TestFigureI1IntegrityShapes(t *testing.T) {
	fr := figure(t, NewRunner(expScale), "figI1")
	if len(fr.Measured) != 4 {
		t.Fatalf("figure I1 needs 4 series, got %d", len(fr.Measured))
	}
	lru, overlap, blocking, pre := fr.Measured[0], fr.Measured[1], fr.Measured[2], fr.Measured[3]
	// Overlapped verification costs only MAC-table traffic: within noise
	// of bare OTP on average.
	if overlap.Mean() > lru.Mean()+0.5 {
		t.Errorf("overlap verification should be near-free: lru=%.2f overlap=%.2f", lru.Mean(), overlap.Mean())
	}
	// Blocking verification holds every miss for the MAC check: a large,
	// XOM-like cost.
	if blocking.Mean() < 5*overlap.Mean()+5 {
		t.Errorf("blocking verification should dominate: overlap=%.2f blocking=%.2f",
			overlap.Mean(), blocking.Mean())
	}
	// Pad precompute never hurts.
	for i, b := range Benchmarks {
		if pre.Values[i] > lru.Values[i]+0.1 {
			t.Errorf("%s: OTP-Pre %.2f above SNC-LRU %.2f", b, pre.Values[i], lru.Values[i])
		}
	}
	// Measured-only figures must still render fully.
	out := fr.Render()
	for _, want := range []string{"Figure I1", "OTP+MAC blocking (measured)", "average", "notes:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	if strings.Contains(out, "rank correlation") {
		t.Error("measured-only figure rendered a paper rank correlation")
	}
}

func TestSchemesResolvableThroughRegistry(t *testing.T) {
	// Every scheme reference the figure specs name must resolve through
	// the registry — the seam the specs now depend on — to itself: a
	// figure's spec is a memo key, and must equal the spec a request for
	// the same configuration resolves to.
	for _, f := range figureSpecs() {
		for _, s := range f.series {
			if ref, err := sim.SchemeByName(s.scheme.Canonical()); err != nil || ref != s.scheme {
				t.Errorf("%s series %q: scheme %q resolves to %q (%v)", f.id, s.name, s.scheme, ref, err)
			}
		}
	}
}

// TestRenderReportsPaperMismatch: a paper series list that cannot be
// aligned with the measured series must be called out, not silently
// dropped.
func TestRenderReportsPaperMismatch(t *testing.T) {
	fr := FigureResult{
		ID:    "Figure T",
		Title: "mismatch test",
		Measured: []stats.Series{
			stats.NewSeries("a (measured)", Benchmarks, make([]float64, len(Benchmarks))),
			stats.NewSeries("b (measured)", Benchmarks, make([]float64, len(Benchmarks))),
		},
		Paper: []stats.Series{PaperFig3XOM},
	}
	out := fr.Render()
	if !strings.Contains(out, "WARNING") || !strings.Contains(out, "1 paper series") ||
		!strings.Contains(out, "2 measured series") {
		t.Errorf("mismatch not reported:\n%s", out)
	}
	if strings.Contains(out, PaperFig3XOM.Name) {
		t.Error("unaligned paper column rendered anyway")
	}
	// Aligned figures must not warn.
	if out := (FigureResult{Measured: fr.Measured[:1], Paper: fr.Paper}).Render(); strings.Contains(out, "WARNING") {
		t.Errorf("aligned figure warned:\n%s", out)
	}
}

// TestFigureC1Shapes asserts the multiprogramming figure's qualitative
// claims at test scale: flush always costs more than pid, flush always
// pays switch traffic, pid never does, and shorter quanta hurt more.
func TestFigureC1Shapes(t *testing.T) {
	fr := figure(t, NewRunner(0.05), "figC1")
	if len(fr.Rows) == 0 {
		t.Fatal("figure C1 must define its own rows")
	}
	flushSlow, pidSlow := fr.Measured[0], fr.Measured[1]
	flushTraffic, pidTraffic := fr.Measured[2], fr.Measured[3]
	for i, row := range fr.Rows {
		if flushSlow.Values[i] <= pidSlow.Values[i] {
			t.Errorf("%s: flush slowdown %.2f%% not above pid %.2f%%",
				row, flushSlow.Values[i], pidSlow.Values[i])
		}
		if flushTraffic.Values[i] <= 0 {
			t.Errorf("%s: flush switch traffic %.2f%%, want > 0", row, flushTraffic.Values[i])
		}
		if pidTraffic.Values[i] != 0 {
			t.Errorf("%s: pid switch traffic %.2f%%, want exactly 0", row, pidTraffic.Values[i])
		}
	}
	// Rows come in (q=10000, q=50000) pairs per benchmark pair; the shorter
	// quantum must slow the pair down at least as much under flush.
	for i := 0; i+1 < len(fr.Rows); i += 2 {
		if flushSlow.Values[i] < flushSlow.Values[i+1] {
			t.Errorf("flush: quantum 10K (%.2f%%) milder than 50K (%.2f%%)",
				flushSlow.Values[i], flushSlow.Values[i+1])
		}
	}
}
