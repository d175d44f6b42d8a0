package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"secureproc/internal/dispatch"
	"secureproc/internal/sim"
	"secureproc/internal/stats"
	"secureproc/internal/store"
	"secureproc/internal/workload"
)

// FigureResult is one regenerated figure: the measured series side by side
// with the series read off the paper (when the paper has one — figures that
// explore beyond the paper, like Figure I1, carry measured series only).
type FigureResult struct {
	// ID is the figure number ("Figure 5").
	ID string
	// Title describes the experiment.
	Title string
	// Measured and Paper are parallel lists of series over the benchmarks.
	// Paper is empty for measured-only figures.
	Measured []stats.Series
	Paper    []stats.Series
	// Rows overrides the table's row labels; empty means the standard
	// benchmark list. Figures whose natural rows are not benchmarks
	// (Figure C1's pair × quantum sweep) set it.
	Rows []string
	// Notes records modelling caveats for this figure.
	Notes string
}

// Render formats the figure as a text table: for every measured series the
// matching paper series (if any) is printed next to it. A paper series list
// that does not align with the measured one is reported explicitly rather
// than silently dropped.
func (fr FigureResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", fr.ID, fr.Title)
	withPaper := len(fr.Paper) == len(fr.Measured) && len(fr.Paper) > 0
	if len(fr.Paper) > 0 && !withPaper {
		fmt.Fprintf(&b, "WARNING: %d paper series cannot be aligned with %d measured series; paper columns omitted\n",
			len(fr.Paper), len(fr.Measured))
	}
	rows := fr.Rows
	if len(rows) == 0 {
		rows = Benchmarks
	}
	cols := []string{"benchmark"}
	for i := range fr.Measured {
		if withPaper {
			cols = append(cols, fr.Paper[i].Name)
		}
		cols = append(cols, fr.Measured[i].Name)
	}
	t := stats.NewTable("", cols...)
	for _, bench := range rows {
		cells := []string{bench}
		for i := range fr.Measured {
			if withPaper {
				pv, _ := fr.Paper[i].Value(bench)
				cells = append(cells, fmt.Sprintf("%.2f", pv))
			}
			mv, _ := fr.Measured[i].Value(bench)
			cells = append(cells, fmt.Sprintf("%.2f", mv))
		}
		t.AddRow(cells...)
	}
	cells := []string{"average"}
	for i := range fr.Measured {
		if withPaper {
			cells = append(cells, fmt.Sprintf("%.2f", fr.Paper[i].Mean()))
		}
		cells = append(cells, fmt.Sprintf("%.2f", fr.Measured[i].Mean()))
	}
	t.AddRow(cells...)
	b.WriteString(t.String())
	if withPaper {
		for i := range fr.Paper {
			rho := stats.SpearmanRank(fr.Paper[i], fr.Measured[i])
			fmt.Fprintf(&b, "rank correlation (%s vs measured): %.2f\n", fr.Paper[i].Name, rho)
		}
	}
	if fr.Notes != "" {
		fmt.Fprintf(&b, "notes: %s\n", fr.Notes)
	}
	return b.String()
}

// Runner executes and memoizes the simulations behind the figures. Safe for
// concurrent use: concurrent requests for the same Spec are deduplicated
// through per-key latches, so every configuration simulates at most once no
// matter how many goroutines (or pool workers) ask for it.
type Runner struct {
	// Scale multiplies every workload's measured length (1.0 = native,
	// ~200K references per benchmark). Warmup always runs in full.
	Scale float64

	// Jobs caps the total worker budget: the number of simulations the
	// sweep engine runs concurrently. 0 means runtime.GOMAXPROCS(0); 1
	// forces the sequential path. Set it before the first figure request.
	Jobs int

	// Capacity bounds the result memo: once more than Capacity completed
	// simulations are memoized, the least-recently-used ones are evicted.
	// In-flight simulations are pinned and never evicted. 0 (the default)
	// means unbounded, which is what batch figure sweeps want — every
	// result stays memoized, so the goldens are untouched. Long-lived
	// services (secsimd) set a bound. A bounded Runner can simulate a key
	// again after eviction, so it checkpoints each key's first simulation
	// (see checkpoint.go). Set before the first request.
	Capacity int

	// Store, when non-nil, persists completed results to disk: a result-memo
	// miss consults the store before simulating, and fresh results are
	// spilled back, so a restarted process (or a fresh CI job pointed at the
	// same directory) answers warm. Entries are keyed by the canonical run
	// key plus the Runner's scale, under the store's timing-model version
	// (sim.TimingModelVersion). Traces are never stored — they recompute on
	// miss. Set before the first request.
	Store *store.Store

	// cache and traces are embedded by value (initialized on first use via
	// each memo's sync.Once) so a Runner costs no extra allocations over
	// the maps themselves — the perf harness gates allocs/op at zero
	// tolerance.
	cache memo[Spec, sim.Result]
	sims  atomic.Int64

	// budget is the shared worker-slot ledger (cap = jobs()): every
	// in-flight simulation holds one slot. Embedded by value (two atomics)
	// so the sequential path pays nothing for it.
	budget dispatch.Budget

	// disp is the weighted-fair dispatcher behind SweepEach and the
	// parallel fanOut, built lazily on first dispatch so a one-worker
	// batch sweep (the perf harness) never constructs it. dispMu guards
	// construction; readers (stats, owner-depth probes) load the pointer
	// and treat nil as "never dispatched".
	dispMu sync.Mutex
	disp   atomic.Pointer[dispatch.Dispatcher]

	// traces memoizes materialized benchmark record sequences (see
	// Runner.trace); independent latch domain from the result memo.
	traces memo[string, []workload.Record]

	// materialize generates a benchmark's trace; nil means
	// workload.Materialize. The panic-containment tests set it to make
	// every simulation fail inside its worker.
	materialize func(workload.Profile, float64) ([]workload.Record, error)
}

// NewRunner creates a Runner at the given workload scale.
func NewRunner(scale float64) *Runner {
	return &Runner{Scale: scale}
}

// seriesKind selects the metric a measured series reports.
type seriesKind int

const (
	// slowdownKind is percent slowdown vs the default insecure baseline.
	slowdownKind seriesKind = iota
	// normalizedKind is execution time normalized to the default baseline
	// (Figure 8).
	normalizedKind
	// trafficKind is SNC traffic as a percent of demand traffic (Figure 9);
	// it needs no baseline run.
	trafficKind
)

// seriesSpec declares one measured series: which scheme to run (any
// registered scheme reference, so new registered schemes are immediately
// addressable from figure specs), how to tweak the default configuration,
// and which metric to report.
type seriesSpec struct {
	name   string
	kind   seriesKind
	scheme sim.SchemeRef
	tweak  func(*Spec)
}

// figureSpec declares one paper figure. The spec is the single source of
// truth for both the simulations a figure needs (addKeys) and how its
// measured series are assembled (build), so the sweep engine can enqueue
// every run up front and the builder later reads the sweep's results in
// deterministic benchmark order.
type figureSpec struct {
	id     string // paper figure number ("Figure 5")
	short  string // CLI name ("fig5")
	title  string
	notes  string
	series []seriesSpec
	paper  []stats.Series
}

// spec returns the simulation for one series/benchmark cell.
func (s seriesSpec) spec(bench string) Spec {
	sp := DefaultSpec(bench, s.scheme)
	if s.tweak != nil {
		s.tweak(&sp)
	}
	return sp
}

// keySet is a deduplicated list of specs in first-added order, with each
// spec's position: the sweep's results come back in that order, and a
// figure's builder finds a cell's result through at.
type keySet struct {
	keys []Spec
	at   map[Spec]int
}

func (ks *keySet) add(k Spec) {
	if ks.at == nil {
		ks.at = make(map[Spec]int)
	}
	if _, ok := ks.at[k]; !ok {
		ks.at[k] = len(ks.keys)
		ks.keys = append(ks.keys, k)
	}
}

// addKeys adds every simulation the figure needs to ks, in series then
// benchmark order.
func (f figureSpec) addKeys(ks *keySet) {
	for _, s := range f.series {
		for _, b := range Benchmarks {
			if s.kind != trafficKind {
				ks.add(DefaultSpec(b, sim.SchemeBaseline))
			}
			ks.add(s.spec(b))
		}
	}
}

// Figure I1's two MAC verification policies.
var (
	schemeMACOverlap = mustScheme("otp-mac:verify=overlap")
	schemeMACBlock   = mustScheme("otp-mac:verify=blocking")
)

// mustScheme resolves a scheme reference this package names itself.
func mustScheme(s string) sim.SchemeRef {
	ref, err := sim.SchemeByName(s)
	if err != nil {
		panic(err)
	}
	return ref
}

// figureSpecs declares all regenerable figures in paper order.
func figureSpecs() []figureSpec {
	lat102 := func(s *Spec) { s.CryptoLat = 102 }
	return []figureSpec{
		{
			id: "Figure 3", short: "fig3",
			title: "performance loss due to critical-path encryption/decryption (XOM, 50-cycle crypto)",
			series: []seriesSpec{
				{name: "XOM (measured)", scheme: sim.SchemeXOM},
			},
			paper: []stats.Series{PaperFig3XOM},
		},
		{
			id: "Figure 5", short: "fig5",
			title: "scheme comparison with a 64KB SNC (32K sequence numbers, 4MB coverage)",
			series: []seriesSpec{
				{name: "XOM (measured)", scheme: sim.SchemeXOM},
				{name: "SNC-NoRepl (measured)", scheme: sim.SchemeOTPNoRepl},
				{name: "SNC-LRU (measured)", scheme: sim.SchemeOTPLRU},
			},
			paper: []stats.Series{PaperFig3XOM, PaperFig5NoRepl, PaperFig5LRU},
		},
		{
			id: "Figure 6", short: "fig6",
			title: "SNC size sweep (LRU): 32KB/64KB/128KB cover 2/4/8MB of memory",
			series: []seriesSpec{
				{name: "32KB (measured)", scheme: sim.SchemeOTPLRU, tweak: func(s *Spec) { s.SNCKB = 32 }},
				{name: "64KB (measured)", scheme: sim.SchemeOTPLRU},
				{name: "128KB (measured)", scheme: sim.SchemeOTPLRU, tweak: func(s *Spec) { s.SNCKB = 128 }},
			},
			paper: []stats.Series{PaperFig6SNC32, PaperFig6SNC64, PaperFig6SNC128},
		},
		{
			id: "Figure 7", short: "fig7",
			title: "SNC associativity: fully associative vs 32-way (64KB, LRU)",
			series: []seriesSpec{
				{name: "fully assoc (measured)", scheme: sim.SchemeOTPLRU},
				{name: "32-way (measured)", scheme: sim.SchemeOTPLRU, tweak: func(s *Spec) { s.SNCWays = 32 }},
			},
			paper: []stats.Series{PaperFig7FullAssoc, PaperFig7Way32},
			notes: "ammp's strided working set maps into a single 32-way set, recreating the paper's outlier",
		},
		{
			id: "Figure 8", short: "fig8",
			title: "larger L2 vs L2+SNC at equal chip area (times normalized to insecure 256KB-L2 baseline)",
			series: []seriesSpec{
				{name: "XOM-256KL2 (measured)", kind: normalizedKind, scheme: sim.SchemeXOM},
				{name: "XOM-384KL2 (measured)", kind: normalizedKind, scheme: sim.SchemeXOM,
					tweak: func(s *Spec) { s.L2KB = 384; s.L2Ways = 6 }},
				{name: "SNC-32way-LRU-256KL2 (measured)", kind: normalizedKind, scheme: sim.SchemeOTPLRU,
					tweak: func(s *Spec) { s.SNCWays = 32 }},
			},
			paper: []stats.Series{PaperFig8XOM256, PaperFig8XOM384, PaperFig8SNC},
		},
		{
			id: "Figure 9", short: "fig9",
			title: "SNC-induced additional memory traffic (64KB SNC, LRU)",
			series: []seriesSpec{
				{name: "traffic % (measured)", kind: trafficKind, scheme: sim.SchemeOTPLRU},
			},
			paper: []stats.Series{PaperFig9Traffic},
			notes: "absolute percentages are sensitive to the synthetic workloads' cold-region weights; the shape (small everywhere, largest for the low-traffic benchmarks) is the reproduced claim",
		},
		{
			id: "Figure 10", short: "fig10",
			title: "102-cycle encryption/decryption unit (Sandia-class): XOM degrades, OTP is insensitive",
			series: []seriesSpec{
				{name: "XOM (measured)", scheme: sim.SchemeXOM, tweak: lat102},
				{name: "SNC-NoRepl (measured)", scheme: sim.SchemeOTPNoRepl, tweak: lat102},
				{name: "SNC-LRU (measured)", scheme: sim.SchemeOTPLRU, tweak: lat102},
			},
			paper: []stats.Series{PaperFig10XOM, PaperFig10NoRepl, PaperFig10LRU},
		},
		{
			id: "Figure I1", short: "figI1",
			title: "integrity verification on the timing path: what MAC fetch/verify adds on top of OTP (64KB SNC, LRU; measured only — the paper scopes integrity out)",
			series: []seriesSpec{
				{name: "SNC-LRU (measured)", scheme: sim.SchemeOTPLRU},
				{name: "OTP+MAC overlap (measured)", scheme: schemeMACOverlap},
				{name: "OTP+MAC blocking (measured)", scheme: schemeMACBlock},
				{name: "OTP-Pre (measured)", scheme: sim.SchemeOTPPrecompute},
			},
			notes: "overlap retires verification off the critical path (Gassend-style speculation) and costs only the MAC-table traffic; blocking holds every L2 miss for the 80-cycle MAC check; OTP-Pre bounds what pad precompute can recover",
		},
	}
}

// build assembles the figure from the results of a sweep over ks (which
// holds every key addKeys adds), in deterministic series then benchmark
// order, so the output is byte-identical to the sequential path. It reads
// the sweep's results rather than the memo, so a memo smaller than the key
// set never simulates a key twice.
func (f figureSpec) build(ks keySet, results []sim.Result) FigureResult {
	measured := make([]stats.Series, len(f.series))
	for i, s := range f.series {
		vals := make([]float64, len(Benchmarks))
		for j, b := range Benchmarks {
			res := results[ks.at[s.spec(b)]]
			var base sim.Result
			if s.kind != trafficKind {
				base = results[ks.at[DefaultSpec(b, sim.SchemeBaseline)]]
			}
			switch s.kind {
			case slowdownKind:
				vals[j] = sim.Slowdown(res, base)
			case normalizedKind:
				vals[j] = sim.NormalizedTime(res, base)
			case trafficKind:
				vals[j] = stats.Pct(res.SNCTraffic(), res.DemandTraffic())
			}
		}
		measured[i] = stats.NewSeries(s.name, Benchmarks, vals)
	}
	return FigureResult{ID: f.id, Title: f.title, Measured: measured, Paper: f.paper, Notes: f.notes}
}

// ErrUnknownFigure is wrapped by Figure's error for a name that matches no
// regenerable figure.
var ErrUnknownFigure = errors.New("experiments: unknown figure")

// Figure regenerates one figure by short name ("fig5", case-insensitive;
// "figure5" and "5" are aliases) under ctx. Its simulations (the figure's
// key sweep, or Figure C1's scheduler runs) fan out through fanOut, tagged
// with the owner and weight ctx carries (dispatch.WithOwner): a cancelled
// ctx sheds the queued ones and returns ctx.Err(), and a panicking one
// fails the figure with an error.
func (r *Runner) Figure(ctx context.Context, name string) (FigureResult, error) {
	n := strings.ToLower(name)
	for _, f := range figureSpecs() {
		short := strings.ToLower(f.short)
		if n == short || n == "figure"+strings.TrimPrefix(short, "fig") || n == strings.TrimPrefix(short, "fig") {
			var ks keySet
			f.addKeys(&ks)
			results, err := r.sweep(ctx, ks.keys)
			if err != nil {
				return FigureResult{}, err
			}
			return f.build(ks, results), nil
		}
	}
	if n == "figc1" || n == "figurec1" || n == "c1" {
		return r.figureC1(ctx)
	}
	return FigureResult{}, fmt.Errorf("%w %q (have %s)", ErrUnknownFigure, name, strings.Join(Names(), ", "))
}

// All regenerates every figure in paper order. Every required single-
// program simulation is enqueued up front and fanned out over the worker
// pool, then the figures are assembled in deterministic order from the
// sweep's results; the multiprogrammed Figure C1 (which drives its own
// scheduler runs) comes last. The figure specs only reference valid
// benchmarks and configurations, so an error here is a programming bug and
// panics.
func (r *Runner) All() []FigureResult {
	out, err := r.all(context.Background()) //secsim:detach batch root: a full figure sweep runs to completion by design
	if err != nil {
		panic(err)
	}
	return out
}

// all is All under ctx, returning the first error instead of panicking.
func (r *Runner) all(ctx context.Context) ([]FigureResult, error) {
	specs := figureSpecs()
	var ks keySet
	for _, f := range specs {
		f.addKeys(&ks)
	}
	results, err := r.sweep(ctx, ks.keys)
	if err != nil {
		return nil, err
	}
	out := make([]FigureResult, 0, len(specs)+1)
	for _, f := range specs {
		out = append(out, f.build(ks, results))
	}
	fr, err := r.figureC1(ctx)
	if err != nil {
		return nil, err
	}
	return append(out, fr), nil
}

// Names lists the regenerable figures.
func Names() []string {
	specs := figureSpecs()
	out := make([]string, 0, len(specs)+1)
	for _, f := range specs {
		out = append(out, f.short)
	}
	return append(out, "figC1")
}

// Simulations reports how many simulations actually executed, as opposed to
// being answered from the memo. With race-free deduplication and no
// eviction this equals MemoStats().Size once all requests have drained —
// the exactly-once property the concurrency tests assert.
func (r *Runner) Simulations() int64 { return r.sims.Load() }

// MemoStats snapshots the result memo's lifecycle counters (size,
// capacity, in-flight simulations, hit/miss/coalesced/eviction counts) —
// the payload behind secsimd's /metrics endpoint.
func (r *Runner) MemoStats() CacheStats { return r.results().stats() }

// TraceStats snapshots the materialized-trace memo's counters.
func (r *Runner) TraceStats() CacheStats { return r.traceMemo().stats() }

// SortedCacheKeys returns a human-readable list of memoized runs.
func (r *Runner) SortedCacheKeys() []string {
	keys := r.results().keys()
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, k.CanonicalKey())
	}
	sort.Strings(out)
	return out
}
