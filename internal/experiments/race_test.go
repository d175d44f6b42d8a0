package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"

	"secureproc/internal/sim"
)

// raceScale keeps the concurrency tests quick; exactly-once and
// determinism hold at any scale.
const raceScale = 0.02

// TestConcurrentFiguresExactlyOnce hammers one Runner from many goroutines
// requesting overlapping figures and asserts the singleflight memo ran each
// Spec exactly once: the executed-simulation counter must equal the number
// of distinct memo entries, and repeated figures must render identically.
func TestConcurrentFiguresExactlyOnce(t *testing.T) {
	r := NewRunner(raceScale)
	r.Jobs = 8
	// Overlapping on purpose: fig5 shares baseline+XOM with fig3, fig7
	// shares LRU with fig5 and fig9, fig10 shares nothing but baselines.
	figs := []string{"fig3", "fig5", "fig3", "fig10", "fig5", "fig9", "fig3", "fig7"}
	rendered := make([]string, len(figs))
	var wg sync.WaitGroup
	for i, n := range figs {
		wg.Add(1)
		go func(i int, n string) {
			defer wg.Done()
			fr, err := r.Figure(context.Background(), n)
			if err != nil {
				t.Errorf("Figure(%q): %v", n, err)
				return
			}
			rendered[i] = fr.Render()
		}(i, n)
	}
	wg.Wait()
	if got, want := r.Simulations(), int64(r.MemoStats().Size); got != want {
		t.Errorf("%d simulations executed for %d distinct keys; overlapping figures double-computed", got, want)
	}
	for i, n := range figs {
		for j := i + 1; j < len(figs); j++ {
			if figs[j] == n && rendered[i] != rendered[j] {
				t.Errorf("%s rendered differently on concurrent requests %d and %d", n, i, j)
			}
		}
	}
}

// TestConcurrentSweepSharedSpecs drives the exported Spec API from several
// goroutines sweeping the same spec list concurrently.
func TestConcurrentSweepSharedSpecs(t *testing.T) {
	r := NewRunner(raceScale)
	r.Jobs = 4
	var specs []Spec
	for _, b := range []string{"gzip", "mesa", "vpr"} {
		for _, k := range []sim.SchemeRef{sim.SchemeBaseline, sim.SchemeXOM, sim.SchemeOTPLRU} {
			specs = append(specs, DefaultSpec(b, k))
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := r.Sweep(context.Background(), specs); err != nil {
				t.Errorf("Sweep: %v", err)
			}
		}()
	}
	wg.Wait()
	if got, want := r.Simulations(), int64(len(specs)); got != want {
		t.Errorf("%d simulations for %d distinct specs", got, want)
	}
	// Every spec must now be a memo hit returning a consistent result.
	for _, s := range specs {
		r1, err := r.RunCtx(context.Background(), s)
		if err != nil {
			t.Fatalf("Run(%+v): %v", s, err)
		}
		r2, _ := r.RunCtx(context.Background(), s)
		if r1 != r2 {
			t.Errorf("memoized result for %+v not stable", s)
		}
	}
	if got, want := r.Simulations(), int64(len(specs)); got != want {
		t.Errorf("memo hits re-simulated: %d runs for %d specs", got, want)
	}
}

// TestSweepCancellation checks the pool honours context cancellation: a
// pre-cancelled sweep must not run everything and must report the
// cancellation.
func TestSweepCancellation(t *testing.T) {
	r := NewRunner(raceScale)
	r.Jobs = 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var specs []Spec
	for _, b := range Benchmarks {
		specs = append(specs, DefaultSpec(b, sim.SchemeXOM))
	}
	if err := r.Sweep(ctx, specs); err == nil {
		t.Error("cancelled sweep returned nil error")
	}
	if n := r.Simulations(); n >= int64(len(specs)) {
		t.Errorf("cancelled sweep still ran all %d simulations", n)
	}
}

// TestSweepUnknownBenchmark checks a bad spec surfaces as an error from the
// pool (not a panic) and cancels the sweep.
func TestSweepUnknownBenchmark(t *testing.T) {
	r := NewRunner(raceScale)
	r.Jobs = 2
	specs := []Spec{DefaultSpec("nosuch", sim.SchemeXOM), DefaultSpec("gzip", sim.SchemeXOM)}
	err := r.Sweep(context.Background(), specs)
	if err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Errorf("want unknown-benchmark error, got %v", err)
	}
}

// TestParallelMatchesSequential locks in the determinism contract: All()
// through the worker pool must produce byte-identical rendered output to
// the sequential path.
func TestParallelMatchesSequential(t *testing.T) {
	seqR := NewRunner(raceScale)
	seqR.Jobs = 1
	parR := NewRunner(raceScale)
	parR.Jobs = 8
	var seqOut, parOut strings.Builder
	for _, fr := range seqR.All() {
		seqOut.WriteString(fr.Render())
	}
	for _, fr := range parR.All() {
		parOut.WriteString(fr.Render())
	}
	if seqOut.String() != parOut.String() {
		t.Error("parallel All() output differs from sequential output")
	}
	if seqR.Simulations() != parR.Simulations() {
		t.Errorf("sequential ran %d simulations, parallel ran %d",
			seqR.Simulations(), parR.Simulations())
	}
}
