// Package perf is the repository's performance harness: it runs a fixed,
// reduced-scale slice of the paper's figure sweep plus targeted
// single-simulation probes, measures wall-clock, simulation throughput,
// instruction throughput and allocations, and emits a machine-readable
// snapshot (benchmark name → {ns/op, allocs/op, sims/sec}).
//
// The snapshot has two consumers:
//
//   - developers, via `go test ./internal/perf -run TestPerfSnapshot
//     -perf.out=BENCH.json`, to record where the simulator's speed stands;
//   - CI, which collects three snapshots each on the merge-base and the PR
//     head, alternating between them, and fails the build when the head's
//     best ns/op regresses beyond a threshold or its fewest allocs/op grow
//     at all against the merge-base's (Compare, run by `go test
//     ./internal/perf -run TestPerfCompare -perf.base b1.json,b2.json,b3.json
//     -perf.cur p1.json,p2.json,p3.json`).
//
// Workloads, scales and iteration counts are fixed constants so that two
// snapshots of the same code differ only by machine noise; ns/op and
// allocs/op are each taken as the best of several runs to damp that noise
// further.
package perf

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"secureproc/internal/dispatch"
	"secureproc/internal/experiments"
	"secureproc/internal/sim"
	"secureproc/internal/workload"
)

// Metric is one benchmark's measurement.
type Metric struct {
	// NsPerOp is the best-of-Rounds wall-clock for one operation.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is the heap allocation count of one operation: the
	// fewest over allocRounds runs (see measureOp).
	AllocsPerOp float64 `json:"allocs_per_op"`
	// SimsPerSec is complete simulations per second during the best round
	// (zero for benchmarks that aren't simulation-granular).
	SimsPerSec float64 `json:"sims_per_sec"`
	// InstrsPerSec is simulated instructions retired per wall-clock second
	// during the best round (zero where not meaningful).
	InstrsPerSec float64 `json:"instrs_per_sec,omitempty"`
}

// Snapshot maps benchmark name → measurement.
type Snapshot map[string]Metric

// Rounds is how many times each timed operation runs; NsPerOp keeps the
// fastest, which is the standard way to strip scheduler noise from a
// deterministic workload.
const Rounds = 3

// allocRounds is how many times each operation runs to count its
// allocations; AllocsPerOp keeps the fewest (see measureOp).
const allocRounds = 4

// sweepScale is the workload scale of the figure-sweep benchmark — the
// same reduced scale the golden figures are generated at.
const sweepScale = 0.05

// probeScale is the workload scale of the single-simulation probes.
const probeScale = 0.1

// latencyScale is the workload scale of the end-to-end latency probe. Full
// scale, deliberately: the probe measures the latency of exactly one
// uncached full-length request.
const latencyScale = 1.0

// Collect runs the full harness and returns the snapshot.
func Collect() Snapshot {
	s := make(Snapshot)
	s["figure-sweep"] = measureSweep()
	for _, p := range []struct {
		name   string
		scheme sim.SchemeRef
		bench  string
	}{
		{"sim-baseline-mcf", sim.SchemeBaseline, "mcf"},
		{"sim-snc-lru-mcf", sim.SchemeOTPLRU, "mcf"},
		{"sim-snc-lru-gcc", sim.SchemeOTPLRU, "gcc"},
		{"sim-xom-art", sim.SchemeXOM, "art"},
	} {
		s[p.name] = measureSim(p.scheme, p.bench)
	}
	s["latency-snc-lru-mcf-serial"] = measureLatency(false)
	s["latency-snc-lru-mcf-replay"] = measureLatency(true)
	s["latency-snc-lru-mcf-cold"] = measureCold()
	s["dispatch-overhead"] = measureDispatch()
	return s
}

// dispatchJobs is the batch size of the dispatch-overhead probe.
const dispatchJobs = 1024

// measureDispatch prices the dispatch layer itself: dispatchJobs trivial
// jobs from two owners pushed through a fresh Dispatcher over a
// GOMAXPROCS-slot budget, measuring pure scheduling cost (queueing,
// weighted-fair picks, slot accounting, goroutine hand-off) with no
// simulation work attached. This is the overhead every dispatched request
// pays on top of its simulation; the batch figure-sweep path never
// constructs a Dispatcher and is separately gated by figure-sweep staying
// flat.
func measureDispatch() Metric {
	return measureOp(func() (int, uint64) {
		b := dispatch.NewBudget(runtime.GOMAXPROCS(0))
		d := dispatch.NewDispatcher(b)
		ctx := context.Background() //secsim:detach perf harness runs are never cancelled
		var wg sync.WaitGroup
		wg.Add(dispatchJobs)
		for i := 0; i < dispatchJobs; i++ {
			owner := "bulk"
			if i%2 == 1 {
				owner = "interactive"
			}
			d.Submit(ctx, owner, 1+i%2, func(context.Context) { wg.Done() })
		}
		wg.Wait()
		return 0, 0
	})
}

// measureOp runs op() once untimed, so one-time lazy initialization
// counts nowhere, then Rounds timed and allocRounds counted times; op
// reports how many simulations and simulated instructions it performed.
// NsPerOp is the fastest timed round and AllocsPerOp the fewest
// allocations of any counted round. A counted round runs on one P with the
// collector paused, after a fresh collection: a mid-op collection restarts
// the tiny-allocator block and empties sync.Pools, and a change of P
// changes tiny block, each counting as more allocations. What remains only
// adds allocations the op never asked for: the first counted round resizes
// every sync.Pool it touches for the new P count, and the runtime rebuilds
// a type-assertion site's cache on a random draw (runtime.typeAssert).
func measureOp(op func() (sims int, instrs uint64)) Metric {
	var m Metric
	op()

	best := time.Duration(0)
	var sims int
	var instrs uint64
	for r := 0; r < Rounds; r++ {
		start := time.Now()
		sims, instrs = op()
		if el := time.Since(start); best == 0 || el < best {
			best = el
		}
	}
	m.NsPerOp = float64(best.Nanoseconds())
	sec := best.Seconds()
	if sec > 0 {
		m.SimsPerSec = float64(sims) / sec
		m.InstrsPerSec = float64(instrs) / sec
	}

	procs := runtime.GOMAXPROCS(1)
	gcPercent := debug.SetGCPercent(-1)
	defer func() {
		debug.SetGCPercent(gcPercent)
		runtime.GOMAXPROCS(procs)
	}()
	var ms0, ms1 runtime.MemStats
	for r := 0; r < allocRounds; r++ {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		op()
		runtime.ReadMemStats(&ms1)
		if a := float64(ms1.Mallocs - ms0.Mallocs); r == 0 || a < m.AllocsPerOp {
			m.AllocsPerOp = a
		}
	}
	return m
}

// measureSweep regenerates every figure at the golden scale with a fresh
// Runner per op, so nothing is answered from a previous round's result
// memo. The runs do fork from the process-wide post-warmup checkpoint
// cache, deliberately: the untimed warmup op marks every configuration and
// the first timed round captures its checkpoint (a Runner with an
// unbounded memo captures on a key's second simulation), so the fastest
// rounds and every counted one measure the forked steady state a
// long-lived service settles into — warmup simulated once per
// configuration, measurement phases re-run in full.
func measureSweep() Metric {
	return measureOp(func() (int, uint64) {
		r := experiments.NewRunner(sweepScale)
		r.Jobs = 1 // sequential: comparable across machines with any core count
		r.All()
		return int(r.Simulations()), 0
	})
}

// measureSim runs one benchmark/scheme pair end to end.
func measureSim(scheme sim.SchemeRef, bench string) Metric {
	prof, ok := workload.ByName(bench)
	if !ok {
		panic("perf: unknown benchmark " + bench)
	}
	cfg := sim.DefaultConfig()
	cfg.Scheme = scheme
	return measureOp(func() (int, uint64) {
		res, err := sim.RunProfile(cfg, prof, probeScale)
		if err != nil {
			panic(err)
		}
		return 1, res.Instructions
	})
}

// measureLatency times one full-scale measured phase forked from a shared
// post-warmup checkpoint (restore + RunMeasured on one settled system) —
// the wall-clock a long-lived service pays for one uncached request. With
// replay set, the measured phase instead replays cache outcomes recorded
// once under baseline (restore + RunMeasuredReplay): what the service pays
// for a scheme whose benchmark another scheme has already run.
func measureLatency(replay bool) Metric {
	recs, warm := latencyTrace()
	warmed := func(scheme sim.SchemeRef) *sim.System {
		sys := newSystem(scheme)
		sys.RunWarmup(workload.Replay(recs[:warm]))
		return sys
	}
	var outs *sim.Outcomes
	if replay {
		_, outs = warmed(sim.SchemeBaseline).RunMeasuredRecord(recs[warm:])
	}
	sys := warmed(sim.SchemeOTPLRU)
	cp, _ := sys.Checkpoint()
	return measureOp(func() (int, uint64) {
		if err := sys.Restore(cp); err != nil {
			panic(err)
		}
		if !replay {
			res := sys.RunMeasured(workload.Replay(recs[warm:]))
			return 1, res.Instructions
		}
		res, err := sys.RunMeasuredReplay(recs[warm:], outs)
		if err != nil {
			panic(err)
		}
		return 1, res.Instructions
	})
}

// measureCold times one full-scale request with no checkpoint to fork from
// (sim.New + RunWarmupReplay + RunMeasuredReplay under snc-lru), replaying
// warmup and measured-phase cache outcomes recorded once under baseline:
// what the service pays for a configuration it has never seen, such as a
// new crypto latency, on a benchmark another configuration has already run.
func measureCold() Metric {
	recs, warm := latencyTrace()
	rec := newSystem(sim.SchemeBaseline)
	warmOuts := rec.RunWarmupRecord(recs[:warm])
	_, outs := rec.RunMeasuredRecord(recs[warm:])
	return measureOp(func() (int, uint64) {
		sys := newSystem(sim.SchemeOTPLRU)
		if err := sys.RunWarmupReplay(recs[:warm], warmOuts); err != nil {
			panic(err)
		}
		res, err := sys.RunMeasuredReplay(recs[warm:], outs)
		if err != nil {
			panic(err)
		}
		return 1, res.Instructions
	})
}

// latencyTrace materializes the latency probes' trace, mcf at latencyScale,
// and returns it with its warmup length.
func latencyTrace() ([]workload.Record, int) {
	prof, ok := workload.ByName("mcf")
	if !ok {
		panic("perf: unknown benchmark mcf")
	}
	recs, err := workload.Materialize(prof, latencyScale)
	if err != nil {
		panic(err)
	}
	return recs, min(prof.WarmupRefs(), len(recs))
}

// newSystem builds the default machine under scheme.
func newSystem(scheme sim.SchemeRef) *sim.System {
	cfg := sim.DefaultConfig()
	cfg.Scheme = scheme
	sys, err := sim.New(cfg)
	if err != nil {
		panic(err)
	}
	return sys
}

// WriteFile stores the snapshot as deterministic, indented JSON.
func (s Snapshot) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a snapshot written by WriteFile.
func Load(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	return s, nil
}

// Names returns the snapshot's benchmark names, sorted.
func (s Snapshot) Names() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String renders the snapshot as a fixed-width table.
func (s Snapshot) String() string {
	out := fmt.Sprintf("%-18s %14s %12s %12s %14s\n", "benchmark", "ns/op", "allocs/op", "sims/sec", "instrs/sec")
	for _, name := range s.Names() {
		m := s[name]
		out += fmt.Sprintf("%-18s %14.0f %12.0f %12.1f %14.0f\n",
			name, m.NsPerOp, m.AllocsPerOp, m.SimsPerSec, m.InstrsPerSec)
	}
	return out
}

// Regression is one benchmark metric that got worse than the gate allows.
type Regression struct {
	Name  string  // benchmark
	Field string  // "ns/op" or "allocs/op"
	Base  float64 // merge-base value
	Cur   float64 // PR value
	Pct   float64 // relative change in percent
}

// String renders the regression for CI logs.
func (r Regression) String() string {
	return fmt.Sprintf("%s: %s %.0f -> %.0f (%+.1f%%)", r.Name, r.Field, r.Base, r.Cur, r.Pct)
}

// Compare gates cur against base: ns/op may grow by at most nsTol
// (fractional, e.g. 0.10 for ±10%), allocs/op may not grow at all.
// Benchmarks present only on one side are skipped — they have no
// comparable baseline. The result is sorted by benchmark name.
func Compare(base, cur Snapshot, nsTol float64) []Regression {
	var regs []Regression
	for _, name := range cur.Names() {
		b, ok := base[name]
		if !ok {
			continue
		}
		c := cur[name]
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+nsTol) {
			regs = append(regs, Regression{
				Name: name, Field: "ns/op", Base: b.NsPerOp, Cur: c.NsPerOp,
				Pct: 100 * (c.NsPerOp/b.NsPerOp - 1),
			})
		}
		if c.AllocsPerOp > b.AllocsPerOp {
			pct := 0.0
			if b.AllocsPerOp > 0 {
				pct = 100 * (c.AllocsPerOp/b.AllocsPerOp - 1)
			}
			regs = append(regs, Regression{
				Name: name, Field: "allocs/op", Base: b.AllocsPerOp, Cur: c.AllocsPerOp, Pct: pct,
			})
		}
	}
	return regs
}
