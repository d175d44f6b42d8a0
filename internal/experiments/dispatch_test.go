package experiments

import (
	"context"
	"sync"
	"testing"

	"secureproc/internal/sim"
	"secureproc/internal/workload"
)

// TestExpandBenchesDedupe is the regression test for the duplicate-benchmark
// bug: "gzip,mcf,gzip" used to produce three specs, so the same simulation
// ran (or was memo-answered) twice and sweeps reported inflated counts. The
// parser must keep the first occurrence of each name and drop the rest.
func TestExpandBenchesDedupe(t *testing.T) {
	got, err := ExpandBenches("gzip,mcf,gzip")
	if err != nil || len(got) != 2 || got[0] != "gzip" || got[1] != "mcf" {
		t.Errorf(`ExpandBenches("gzip,mcf,gzip") = (%v, %v), want [gzip mcf]`, got, err)
	}
	got, err = ExpandBenches(" mcf , gzip ,mcf,  mcf ")
	if err != nil || len(got) != 2 || got[0] != "mcf" || got[1] != "gzip" {
		t.Errorf("repeated-name list = (%v, %v), want [mcf gzip]", got, err)
	}
	// "all" must hand back a copy: callers sort and slice the result, and
	// that must never reorder the canonical workload.BenchmarkNames.
	all, err := ExpandBenches("all")
	if err != nil {
		t.Fatalf(`ExpandBenches("all"): %v`, err)
	}
	if len(all) == 0 {
		t.Fatal(`ExpandBenches("all") returned no benchmarks`)
	}
	first := workload.BenchmarkNames[0]
	all[0] = "clobbered"
	if workload.BenchmarkNames[0] != first {
		t.Fatal(`ExpandBenches("all") aliases workload.BenchmarkNames`)
	}
}

// namedSpec is DefaultSpec for a scheme given by registry name.
func namedSpec(t *testing.T, bench, scheme string) Spec {
	t.Helper()
	ref, err := sim.SchemeByName(scheme)
	if err != nil {
		t.Fatal(err)
	}
	return DefaultSpec(bench, ref)
}

// TestSweepEachStreaming: SweepEach must invoke the callback exactly once
// per spec, serialized, with results identical to Run's, and must not wait
// for the whole sweep before the first callback (that property is pinned
// end-to-end by the server streaming tests; here we pin per-spec delivery
// and completeness).
func TestSweepEachStreaming(t *testing.T) {
	const scale = 0.025
	specs := []Spec{
		namedSpec(t, "mcf", "snc-lru"),
		namedSpec(t, "gzip", "snc-lru"),
		namedSpec(t, "parser", "snc-lru"),
	}
	r := NewRunner(scale)
	r.Jobs = 2

	var mu sync.Mutex
	results := make(map[int]sim.Result)
	err := r.SweepEach(context.Background(), specs, func(i int, res sim.Result, err error) {
		if err != nil {
			t.Errorf("spec %d: %v", i, err)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if _, dup := results[i]; dup {
			t.Errorf("spec %d delivered twice", i)
		}
		results[i] = res
	})
	if err != nil {
		t.Fatalf("SweepEach: %v", err)
	}
	if len(results) != len(specs) {
		t.Fatalf("delivered %d results, want %d", len(results), len(specs))
	}
	for i, s := range specs {
		want, err := r.RunCtx(context.Background(), s) // memo hit: must match what the sweep delivered
		if err != nil {
			t.Fatalf("Run(%d): %v", i, err)
		}
		if results[i] != want {
			t.Errorf("spec %d: streamed result diverged from Run", i)
		}
	}
}

// TestFigureC1UsesDispatcher: Figure C1's scheduler runs and solo
// baselines must each take a slot of the shared worker budget through the
// dispatcher, so a figure request cannot run Jobs simulations on top of
// the Jobs already dispatched.
func TestFigureC1UsesDispatcher(t *testing.T) {
	r := NewRunner(0.02)
	r.Jobs = 2
	figure(t, r, "figC1")
	if got := r.DispatchStats().Submitted; got != 16 {
		t.Errorf("submitted %d dispatcher jobs, want 16 (8 solo + 8 multiprogrammed)", got)
	}
}
