package experiments

// Figure C1: the multiprogramming experiment the paper argues in Section
// 4.3 but never measures. Benchmark pairs are time-sliced through one
// machine at two quantum lengths under both context-switch policies; the
// table reports each pair's average slowdown over solo runs and the
// switch-induced SNC spill traffic. The flush policy (option 1) pays a
// spill burst at every switch; the PID-tag policy (option 2) pays zero
// switch traffic but runs a smaller effective SNC — exactly the trade the
// paper describes.

import (
	"context"
	"fmt"

	"secureproc/internal/sched"
	"secureproc/internal/sim"
	"secureproc/internal/stats"
)

// figC1Pairs co-schedules a cache-friendly benchmark with a miss-heavy one
// (where switch costs show) and two mid-pressure benchmarks.
var figC1Pairs = [2][2]string{{"mcf", "gzip"}, {"art", "vpr"}}

// figC1Quanta are the slice lengths in instructions.
var figC1Quanta = [2]uint64{10_000, 50_000}

// figC1Policies are the Section 4.3 options as registry parameters.
var figC1Policies = [2]string{"flush", "pid"}

// figC1Config is the machine for one policy.
func figC1Config(policy string) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Scheme = mustScheme("snc-lru:switch=" + policy)
	return cfg
}

// figureC1 generates the multiprogrammed context-switch figure (measured
// only — the paper states the design, Section 4.3, but reports no
// numbers). The scheduler runs and their solo baselines are all
// independent, so they fan out over the shared worker budget under ctx
// like any other sweep; assembly order is fixed, so the output is
// deterministic.
func (r *Runner) figureC1(ctx context.Context) (FigureResult, error) {
	type cell struct{ slowdown, trafficPct float64 }
	nrows := len(figC1Pairs) * len(figC1Quanta)
	var results [2][]cell
	var rows []string
	for pi := range figC1Policies {
		results[pi] = make([]cell, nrows)
	}

	// Solo baselines are policy-dependent (PID tags shrink the SNC) but
	// quantum- and pair-independent: one run per (bench, policy).
	type soloKey struct{ bench, policy string }
	var soloKeys []soloKey
	seen := make(map[soloKey]bool)
	for _, pair := range figC1Pairs {
		for _, bench := range pair {
			for _, policy := range figC1Policies {
				if k := (soloKey{bench, policy}); !seen[k] {
					seen[k] = true
					soloKeys = append(soloKeys, k)
				}
			}
		}
	}
	type multiRun struct {
		pair    [2]string
		quantum uint64
		policy  string
	}
	var multiRuns []multiRun
	for _, pair := range figC1Pairs {
		for _, quantum := range figC1Quanta {
			rows = append(rows, fmt.Sprintf("%s+%s q=%d", pair[0], pair[1], quantum))
			for _, policy := range figC1Policies {
				multiRuns = append(multiRuns, multiRun{pair, quantum, policy})
			}
		}
	}
	soloVals := make([]uint64, len(soloKeys))
	multis := make([]sched.Result, len(multiRuns))
	// Each job writes its own slot; the lookup map is built after the join.
	err := r.fanOut(ctx, len(soloKeys)+len(multiRuns), func(_ context.Context, i int) error {
		if i < len(soloKeys) {
			k := soloKeys[i]
			v, err := sched.Solo(figC1Config(k.policy), k.bench, r.Scale)
			if err != nil {
				return fmt.Errorf("experiments: figC1 solo %s: %w", k.bench, err)
			}
			soloVals[i] = v
			return nil
		}
		m := multiRuns[i-len(soloKeys)]
		res, err := sched.RunBenchmarks(sched.Config{
			Sim:      figC1Config(m.policy),
			Quantum:  m.quantum,
			Scale:    r.Scale,
			SkipSolo: true,
		}, m.pair[:])
		if err != nil {
			return fmt.Errorf("experiments: figC1 %s+%s: %w", m.pair[0], m.pair[1], err)
		}
		multis[i-len(soloKeys)] = res
		return nil
	})
	if err != nil {
		return FigureResult{}, err
	}
	solos := make(map[soloKey]uint64, len(soloKeys))
	for i, k := range soloKeys {
		solos[k] = soloVals[i]
	}

	for row := 0; row < nrows; row++ {
		for pi := range figC1Policies {
			res := multis[row*len(figC1Policies)+pi]
			avg := 0.0
			for _, task := range res.Tasks {
				s := solos[soloKey{task.Bench, figC1Policies[pi]}]
				avg += 100 * (float64(task.Cycles)/float64(s) - 1)
			}
			avg /= float64(len(res.Tasks))
			results[pi][row] = cell{
				slowdown:   avg,
				trafficPct: stats.Pct(res.SwitchSeqSpills, res.DemandTraffic),
			}
		}
	}

	mk := func(name string, pi int, f func(cell) float64) stats.Series {
		vals := make([]float64, len(rows))
		for i, c := range results[pi] {
			vals[i] = f(c)
		}
		return stats.NewSeries(name, rows, vals)
	}
	return FigureResult{
		ID:    "Figure C1",
		Title: "multiprogrammed context switches (§4.3): flush-encrypt vs PID-tagged SNC, per-pair average slowdown over solo runs",
		Rows:  rows,
		Measured: []stats.Series{
			mk("flush slowdown% (measured)", 0, func(c cell) float64 { return c.slowdown }),
			mk("pid slowdown% (measured)", 1, func(c cell) float64 { return c.slowdown }),
			mk("flush switch-traffic%", 0, func(c cell) float64 { return c.trafficPct }),
			mk("pid switch-traffic%", 1, func(c cell) float64 { return c.trafficPct }),
		},
		Notes: "every switch invalidates L1/L2 (dirty lines drain through the scheme) under both policies; " +
			"flush additionally spills live SNC entries (switch-traffic% of demand traffic), " +
			"pid keeps entries resident at the cost of 8 tag bits per entry (21.8K vs 32K sequence numbers)",
	}, nil
}
