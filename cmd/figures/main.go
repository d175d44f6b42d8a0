// Command figures regenerates the paper's evaluation (Figures 3, 5-10),
// printing paper-vs-measured tables for every series, plus the
// integrity-overhead extension figI1 (measured only — the paper scopes
// integrity verification out).
//
// Usage:
//
//	figures [-scale 1.0] [-fig fig5] [-jobs N] [-list]
//
// With no -fig flag every figure is regenerated (simulations are shared
// between figures). -scale trades trace length for runtime; warmup always
// runs in full so cache/SNC state is faithful at any scale.
//
// Simulations fan out over a worker pool (-jobs, default GOMAXPROCS;
// -jobs 1 forces the sequential path). Figure tables go to stdout and are
// byte-identical regardless of parallelism; per-figure wall-clock and the
// run summary go to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"secureproc/internal/experiments"
)

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale (fraction of native trace length)")
	fig := flag.String("fig", "", "single figure to regenerate (fig3, fig5, ..., fig10, figI1; see -list)")
	jobs := flag.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = sequential)")
	list := flag.Bool("list", false, "list regenerable figures and exit")
	flag.Parse()

	if *list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return
	}
	if *scale <= 0 {
		fmt.Fprintln(os.Stderr, "figures: -scale must be positive")
		os.Exit(1)
	}
	runner := experiments.NewRunner(*scale)
	runner.Jobs = *jobs
	ctx := context.Background()
	start := time.Now()
	if *fig != "" {
		fr, err := runner.Figure(ctx, *fig)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(fr.Render())
	} else {
		// Regenerate figure by figure so the per-figure timing below is
		// meaningful; each figure's simulations still fan out over the
		// pool, and runs are memoized across figures.
		for _, n := range experiments.Names() {
			figStart := time.Now()
			before := runner.MemoStats().Size
			fr, err := runner.Figure(ctx, n)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Print(fr.Render())
			fmt.Println()
			memoized := runner.MemoStats().Size
			fmt.Fprintf(os.Stderr, "[%s: %.2fs, +%d simulations, %d memoized total]\n",
				n, time.Since(figStart).Seconds(), memoized-before, memoized)
		}
	}
	effJobs := runner.Jobs
	if effJobs <= 0 {
		effJobs = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "(%d simulations, %.1fs, scale %.2f, jobs %d)\n",
		runner.Simulations(), time.Since(start).Seconds(), *scale, effJobs)
}
