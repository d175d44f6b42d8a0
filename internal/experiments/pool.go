package experiments

// This file is the concurrent sweep engine behind the figures and the
// secsimd service: a singleflight-style memo (per-key latches, so
// concurrent requests for the same configuration block on one simulation
// instead of racing or double-computing) fed by the dispatch layer's
// weighted-fair scheduler, which fans Specs out over the shared worker
// budget (Runner.Jobs slots). Every simulation builds its own sim.System,
// workload stream and RNG, so concurrent jobs share nothing but the memo.
// The memo mechanics (coalescing, cancellation, LRU eviction, panic
// recording) live in memo.go; the scheduling mechanics (budget, fairness,
// admission) live in internal/dispatch.

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"secureproc/internal/dispatch"
	"secureproc/internal/sim"
	"secureproc/internal/workload"
)

// results returns the result memo, initializing it on first use so
// Capacity can be set after NewRunner but before the first request.
func (r *Runner) results() *memo[Spec, sim.Result] {
	return r.cache.init(r.Capacity, func(s Spec) string {
		return fmt.Sprintf("simulation %s/%s", s.Bench, s.Scheme)
	})
}

// result executes (or recalls) the simulation for s, deduplicating
// concurrent requests for the same key. A caller whose ctx expires while
// another goroutine owns the in-flight simulation returns ctx.Err()
// promptly; the simulation itself always runs to completion so the result
// is memoized for everyone else. With a persistent store attached, a memo
// miss consults the store before simulating and a fresh simulation is
// spilled back to it — errored computations are dropped by the memo and
// never reach the store. The caller holds one slot of the shared worker
// budget for the duration.
func (r *Runner) result(ctx context.Context, s Spec) (sim.Result, error) {
	return r.results().do(ctx, s, func() (sim.Result, error) {
		if r.Store != nil {
			var res sim.Result
			if r.Store.Load(s.storeKey(r.Scale), &res) {
				return res, nil
			}
		}
		// The owner's simulation is deliberately detached from ctx:
		// cancellation governs waiting, never the shared computation. If
		// the caller's ctx flowed in here, an owner coalescing onto an
		// in-flight trace could record its own timeout as the entry's
		// permanent error, poisoning the spec for every future request.
		res, err := r.simulate(context.Background(), s) //secsim:detach memo owner: a caller timeout must not poison the shared entry
		if err == nil && r.Store != nil {
			r.Store.Save(s.storeKey(r.Scale), res)
		}
		return res, err
	})
}

// simulate runs one simulation: fresh system, shared materialized trace.
// Every configuration of one benchmark replays the same record sequence
// (identical to what a fresh generator would emit), so trace generation
// costs once per benchmark instead of once per simulation. The warmup
// prefix additionally forks from the process-wide checkpoint cache (see
// checkpoint.go): a simulation that finds no checkpoint warms up and, where
// a fork can follow, checkpoints the boundary state; later ones restore it
// and run only the measured phase — event-for-event identical to the
// straight-through run.
// A configuration's first warmup in turn replays the cache outcomes
// recorded by the first warmup of the same benchmark and cache geometry,
// and the measured phase those of the same trace and cache geometry, under
// whatever scheme; each records them when there are none (see
// checkpoint.go).
func (r *Runner) simulate(ctx context.Context, s Spec) (sim.Result, error) {
	prof, ok := workload.ByName(s.Bench)
	if !ok {
		return sim.Result{}, fmt.Errorf("experiments: unknown benchmark %q", s.Bench)
	}
	recs, err := r.trace(ctx, prof)
	if err != nil {
		return sim.Result{}, fmt.Errorf("experiments: %w", err)
	}
	warm := prof.WarmupRefs()
	if warm > len(recs) {
		warm = len(recs)
	}
	sys, err := sim.New(s.Config())
	if err != nil {
		return sim.Result{}, err
	}
	r.sims.Add(1)
	if v, seen := retention.get(checkpointKey(s)); v.cp == nil || sys.Restore(v.cp) != nil {
		if w, hit := retention.get(warmupKey(s)); !hit || sys.RunWarmupReplay(recs[:warm], w.rec) != nil {
			retention.put(warmupKey(s), retained{rec: sys.RunWarmupRecord(recs[:warm])})
		}
		// Capture only where a fork can follow: the key was simulated
		// before, or this Runner's bounded memo can evict it and ask
		// again. Otherwise leave a mark, so a second simulation captures.
		var cp retained
		if seen || r.Capacity > 0 {
			cp.cp, _ = sys.Checkpoint()
		}
		retention.put(checkpointKey(s), cp)
	}
	if o, hit := retention.get(outcomeKey(s, r.Scale)); hit {
		if res, err := sys.RunMeasuredReplay(recs[warm:], o.rec); err == nil {
			return res, nil
		}
	}
	res, o := sys.RunMeasuredRecord(recs[warm:])
	retention.put(outcomeKey(s, r.Scale), retained{rec: o})
	return res, nil
}

// traceMemo returns the trace memo, initializing it on first use. It is
// unbounded: keyed by benchmark name, it never holds more than one trace
// per benchmark.
func (r *Runner) traceMemo() *memo[string, []workload.Record] {
	return r.traces.init(0, func(name string) string {
		return fmt.Sprintf("trace %s", name)
	})
}

// trace returns the materialized record sequence for prof at the Runner's
// scale, generating it on first use. Concurrent workers materialize each
// trace exactly once; a panicking Materialize is recorded as the entry's
// error (waiters see the failure, never an empty trace with a nil error)
// and re-raised in the owning goroutine.
func (r *Runner) trace(ctx context.Context, prof workload.Profile) ([]workload.Record, error) {
	return r.traceMemo().do(ctx, prof.Name, func() ([]workload.Record, error) {
		if r.materialize != nil {
			return r.materialize(prof, r.Scale)
		}
		return workload.Materialize(prof, r.Scale)
	})
}

// jobs resolves the effective worker count.
func (r *Runner) jobs() int {
	if r.Jobs > 0 {
		return r.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// bud returns the shared worker budget, refreshing its cap from the
// current Jobs setting (Jobs is set before the first request; re-storing
// the same cap is free).
func (r *Runner) bud() *dispatch.Budget {
	r.budget.SetCap(r.jobs())
	return &r.budget
}

// dispatcher returns the weighted-fair dispatcher over the shared budget,
// building it on first use so batch Runners never pay for it.
func (r *Runner) dispatcher() *dispatch.Dispatcher {
	d := r.disp.Load()
	if d == nil {
		r.dispMu.Lock()
		if d = r.disp.Load(); d == nil {
			d = dispatch.NewDispatcher(&r.budget)
			r.disp.Store(d)
		}
		r.dispMu.Unlock()
	}
	r.budget.SetCap(r.jobs())
	return d
}

// DispatchStats snapshots the dispatcher's queue, fairness and budget
// counters — the payload behind secsimd's /metrics "dispatch" section and
// secsim's batch-mode stderr line. A Runner that never dispatched (the
// sequential batch path) reports budget gauges only, without constructing
// a dispatcher.
func (r *Runner) DispatchStats() dispatch.QueueStats {
	if d := r.disp.Load(); d != nil {
		return d.Stats()
	}
	return dispatch.QueueStats{BudgetCap: r.budget.Cap(), BudgetUsed: r.budget.Used()}
}

// OwnerQueued reports how many dispatched jobs the named fairness owner
// has waiting for a worker slot (0 when nothing was ever dispatched) —
// the per-owner depth behind the admission layer's Retry-After estimate.
func (r *Runner) OwnerQueued(owner string) int {
	if d := r.disp.Load(); d != nil {
		return d.OwnerQueued(owner)
	}
	return 0
}

// dispatchEach runs job(ctx, i) for every i in [0, n) as n dispatcher
// jobs, tagged with the owner/weight carried by ctx (dispatch.WithOwner),
// each holding one budget slot while it runs. The first job error cancels
// the remaining queued jobs, and a cancelled dispatch always reports the
// cancellation, even when every job drained cleanly first. Jobs must never
// dispatch recursively: a job that waited on a nested dispatch would hold
// its slot while the nested jobs starve for one.
func (r *Runner) dispatchEach(ctx context.Context, n int, job func(ctx context.Context, i int) error) error {
	d := r.dispatcher()
	owner, weight := dispatch.OwnerFromContext(ctx)
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	wg.Add(n)
	for i := 0; i < n; i++ {
		d.Submit(ctx, owner, weight, func(jctx context.Context) {
			defer wg.Done()
			if jctx.Err() != nil {
				return
			}
			if err := call(jctx, i, job); err != nil {
				errOnce.Do(func() { firstErr = err })
				cancel()
			}
		})
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	// Report cancellation off the parent, not the derived context: the
	// derived one is about to be cancelled by the deferred cancel
	// regardless, while parent.Err() is non-nil exactly when the caller's
	// context was cancelled.
	return parent.Err()
}

// fanOut runs job(ctx, i) for every i in [0, n), each holding one slot of
// the shared worker budget while it runs. With one worker (or one job) it
// is a plain sequential loop — the batch path the perf harness gates
// allocation-for-allocation; otherwise the jobs go through dispatchEach.
// It returns when every job is done, the context is cancelled, or a job
// fails (first error wins; queued work is shed). A panicking job fails the
// fan-out like an erroring one, on either path. A cancelled fan-out always
// reports the cancellation, even when it raced the last completion or n
// was 0.
func (r *Runner) fanOut(ctx context.Context, n int, job func(ctx context.Context, i int) error) error {
	if r.jobs() <= 1 || n <= 1 {
		b := r.bud()
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			b.Hold()
			err := call(ctx, i, job)
			b.Release()
			if err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	return r.dispatchEach(ctx, n, job)
}

// call runs job(ctx, i), converting a panic into the job's error: on a
// dispatcher goroutine an unrecovered panic would kill the process, and on
// the caller's goroutine it would unwind past the caller's error handling
// (secsimd answers a failed figure with a 500 envelope). The deferred
// closure does not escape, so a job that returns normally pays no
// allocation for it.
func call(ctx context.Context, i int, job func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiments: job %d panicked: %v", i, p)
		}
	}()
	return job(ctx, i)
}

// sweep memoizes every spec through fanOut and returns the results in spec
// order. A panicking simulation surfaces as the sweep's error (fanOut's
// call) rather than propagating out of a job goroutine.
func (r *Runner) sweep(ctx context.Context, specs []Spec) ([]sim.Result, error) {
	results := make([]sim.Result, len(specs))
	err := r.fanOut(ctx, len(specs), func(ctx context.Context, i int) error {
		var err error
		results[i], err = r.result(ctx, specs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Spec is one simulation in the sweep engine's memo space, and its key: the
// result memo, the checkpoint cache and the figures' key sets are keyed by
// the Spec itself, so two specs share an entry exactly when they are equal.
// The zero value is not useful — start from DefaultSpec and tweak.
type Spec struct {
	// Bench is the benchmark name (workload.BenchmarkNames).
	Bench string
	// Scheme is the protection scheme to simulate: any registered scheme
	// reference (sim.SchemeBaseline, or one built via sim.SchemeByName).
	Scheme sim.SchemeRef
	// SNCKB and SNCWays configure the sequence number cache (ways 0 =
	// fully associative).
	SNCKB, SNCWays int
	// L2KB and L2Ways configure the unified L2.
	L2KB, L2Ways int
	// CryptoLat is the crypto unit latency in cycles.
	CryptoLat uint64
}

// DefaultSpec is the paper's standard configuration for a benchmark/scheme:
// 64KB fully associative SNC, 256KB 4-way L2, 50-cycle crypto.
func DefaultSpec(bench string, scheme sim.SchemeRef) Spec {
	return Spec{Bench: bench, Scheme: scheme, SNCKB: 64, L2KB: 256, L2Ways: 4, CryptoLat: 50}
}

// The largest machine a Spec may ask for. A spec is untrusted input (a
// secsimd request body, a secsim flag), and its geometry sets what a
// simulation allocates and how long each access takes, so Validate bounds
// it before anything is built. The caps leave margin over what is used:
// the figures use SNCs of 32–128 KB (fully associative or 32-way), L2s of
// 256 and 384 KB (4- and 6-way) and crypto latencies of 50 and 102 cycles;
// examples/memsweep goes to a 256 KB SNC, and perfbench draws latencies of
// 20–200 cycles. An L2 must name its associativity: a fully associative
// one scans every line on each access.
const (
	MaxSNCKB     = 512
	MaxSNCWays   = 256
	MaxL2KB      = 4096
	MaxL2Ways    = 64
	MaxCryptoLat = 1000
)

// Validate checks the spec's geometry against the caps above, its
// benchmark against the workload registry, and its scheme and machine
// geometry by building and validating the sim.Config it would simulate, so
// callers assembling specs from external input (the secsimd request path,
// the secsim flags) can reject bad ones before they reach the memo or a
// peer. A geometry error names the field in its wire form.
func (s Spec) Validate() error {
	for _, f := range []struct {
		name      string
		v, lo, hi int
	}{
		{"snc_kb", s.SNCKB, 0, MaxSNCKB},
		{"snc_ways", s.SNCWays, 0, MaxSNCWays},
		{"l2_kb", s.L2KB, 0, MaxL2KB},
		{"l2_ways", s.L2Ways, 1, MaxL2Ways},
	} {
		if f.v < f.lo || f.v > f.hi {
			return fmt.Errorf("experiments: %s %d outside [%d, %d]", f.name, f.v, f.lo, f.hi)
		}
	}
	if s.CryptoLat > MaxCryptoLat {
		return fmt.Errorf("experiments: crypto_lat %d above the cap of %d", s.CryptoLat, MaxCryptoLat)
	}
	if _, ok := workload.ByName(s.Bench); !ok {
		return fmt.Errorf("experiments: unknown benchmark %q", s.Bench)
	}
	if err := s.Config().Validate(); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return nil
}

// Config translates s into the machine it simulates: the paper's default
// system with the spec's scheme, SNC, L2 and crypto settings. The
// simulation path, Validate and secsim -multi all build through it, so a
// spec validates exactly when its machine can be built.
func (s Spec) Config() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Scheme = s.Scheme
	cfg.SNC.SizeBytes = s.SNCKB << 10
	cfg.SNC.Ways = s.SNCWays
	cfg.L2.SizeBytes = s.L2KB << 10
	cfg.L2.Ways = s.L2Ways
	cfg.Crypto.Latency = s.CryptoLat
	return cfg
}

// ExpandBenches expands a benchmark argument — a single name, a
// comma-separated list, or "all" — into validated benchmark names. Shared
// by the secsim -bench flag and the secsimd request parsers. Duplicate
// names are dropped, keeping the first occurrence's position, so
// "gzip,mcf,gzip" sweeps each benchmark exactly once; "all" returns a
// fresh copy callers may mutate.
func ExpandBenches(arg string) ([]string, error) {
	if strings.EqualFold(arg, "all") {
		return append([]string(nil), workload.BenchmarkNames...), nil
	}
	var out []string
	seen := make(map[string]bool)
	for _, b := range strings.Split(arg, ",") {
		b = strings.TrimSpace(b)
		if b == "" {
			continue
		}
		if _, ok := workload.ByName(b); !ok {
			return nil, fmt.Errorf("unknown benchmark %q (have %s)", b, strings.Join(workload.BenchmarkNames, ", "))
		}
		if seen[b] {
			continue
		}
		seen[b] = true
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmarks given")
	}
	return out, nil
}

// CanonicalKey renders the spec's memo identity as
// "bench/scheme/sncNKB-Ww/l2-NKB-Ww/cN", the scheme in canonical registry
// form, so two specs share a key exactly when they share a memo entry. It
// is also a SortedCacheKeys entry. The cluster fabric consistent-hashes
// this string to pick the one node that owns the spec's simulation and
// caches.
func (s Spec) CanonicalKey() string {
	return fmt.Sprintf("%s/%s/snc%dKB-%dw/l2-%dKB-%dw/c%d",
		s.Bench, s.Scheme, s.SNCKB, s.SNCWays, s.L2KB, s.L2Ways, s.CryptoLat)
}

// storeKey renders s plus the Runner's scale as the persistent-store key.
// Unlike the checkpoint cache (warmup state is scale-independent), a stored
// Result depends on the measured-phase length, so the scale is part of the
// identity.
func (s Spec) storeKey(scale float64) string {
	return fmt.Sprintf("%s|%s|snc%d.%d|l2_%d.%d|c%d|x%s",
		s.Bench, s.Scheme, s.SNCKB, s.SNCWays, s.L2KB, s.L2Ways, s.CryptoLat,
		strconv.FormatFloat(scale, 'g', -1, 64))
}

// RunCtx executes (or recalls) the simulation for one spec on the caller's
// goroutine, holding one slot of the shared worker budget meanwhile (Hold
// never blocks: overcommit just delays dispatched jobs). If the spec's
// simulation is owned by another in-flight request, a cancelled ctx
// releases this caller with ctx.Err() while the shared simulation runs on.
func (r *Runner) RunCtx(ctx context.Context, s Spec) (sim.Result, error) {
	b := r.bud()
	b.Hold()
	defer b.Release()
	return r.result(ctx, s)
}

// Sweep memoizes every spec using up to Jobs concurrent workers, so a later
// Run for any of them returns instantly. Specs already memoized cost
// nothing; duplicate specs are deduplicated.
func (r *Runner) Sweep(ctx context.Context, specs []Spec) error {
	_, err := r.sweep(ctx, specs)
	return err
}

// SweepEach memoizes every spec through the weighted-fair dispatcher and
// streams each outcome to fn the moment it lands: fn(i, res, err) receives
// specs[i]'s result in completion order (calls are serialized; err is the
// spec's own failure). Unlike Sweep, SweepEach always dispatches — even a
// one-worker Runner queues through the fair scheduler, so a bulk sweep
// submitted under one owner cannot starve requests submitted under
// another. Specs shed by cancellation before simulating, and a spec whose
// simulation panics, are not reported to fn; the returned error is the
// first failure (a panic as "job i panicked") or the cancellation.
func (r *Runner) SweepEach(ctx context.Context, specs []Spec, fn func(i int, res sim.Result, err error)) error {
	var fnMu sync.Mutex
	return r.dispatchEach(ctx, len(specs), func(jctx context.Context, i int) error {
		res, err := r.result(jctx, specs[i])
		fnMu.Lock()
		fn(i, res, err)
		fnMu.Unlock()
		return err
	})
}
