package experiments

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"secureproc/internal/sim"
	"secureproc/internal/store"
	"secureproc/internal/workload"
)

// cpScale keeps the equivalence sweeps quick; the properties under test
// (checkpoint forking, store warm starts) are scale-independent.
const cpScale = 0.02

// straightThrough simulates one spec with a bare sim.System — no memo, no
// checkpoint cache — as the ground truth Runner.RunCtx must match.
func straightThrough(t *testing.T, r *Runner, sp Spec) sim.Result {
	t.Helper()
	prof, ok := workload.ByName(sp.Bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", sp.Bench)
	}
	recs, err := workload.Materialize(prof, r.Scale)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sim.New(sp.Config())
	if err != nil {
		t.Fatal(err)
	}
	warm := prof.WarmupRefs()
	if warm > len(recs) {
		warm = len(recs)
	}
	return sys.Run(workload.Replay(recs), warm)
}

// TestRunnerMatchesStraightThrough is the end-to-end checkpoint-equivalence
// property: whether a Runner's simulation warms up from scratch (and leaves
// a checkpoint behind) or forks from the process-wide checkpoint cache —
// populated by an earlier Runner, possibly at a different scale — the Result
// must be identical to a bare straight-through simulation. The first Runner
// has a bounded memo, so it captures on its first simulation.
func TestRunnerMatchesStraightThrough(t *testing.T) {
	specs := []Spec{
		DefaultSpec("gzip", sim.SchemeOTPLRU),
		DefaultSpec("mcf", sim.SchemeOTPMAC),
		DefaultSpec("art", sim.SchemeXOM),
	}
	for _, sp := range specs {
		cold := NewRunner(cpScale)
		cold.Capacity = 1
		want := straightThrough(t, cold, sp)
		got, err := cold.RunCtx(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s/%s: first Runner.RunCtx diverged from straight-through:\n got %+v\nwant %+v",
				sp.Bench, sp.Scheme.Canonical(), got, want)
		}
		// A second Runner is guaranteed to find the checkpoint the first one
		// left (its own memo is empty, so it simulates again — forked).
		before := CheckpointCacheStats()
		warm := NewRunner(cpScale)
		got2, err := warm.RunCtx(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		if got2 != want {
			t.Errorf("%s/%s: forked Runner.RunCtx diverged from straight-through:\n got %+v\nwant %+v",
				sp.Bench, sp.Scheme.Canonical(), got2, want)
		}
		if after := CheckpointCacheStats(); after.Hits <= before.Hits {
			t.Errorf("%s/%s: second Runner did not fork from the checkpoint cache (hits %d -> %d)",
				sp.Bench, sp.Scheme.Canonical(), before.Hits, after.Hits)
		}
		if warm.Simulations() != 1 {
			t.Errorf("forked Runner ran %d simulations, want 1", warm.Simulations())
		}
	}
}

// forget drops k's checkpoint entry, so a test of the capture rule starts
// cold under -count as well.
func forget(k Spec) {
	retention.mu.Lock()
	defer retention.mu.Unlock()
	if n, ok := retention.entries.items[checkpointKey(k)]; ok {
		retention.entries.remove(n)
		retention.dropped(n)
	}
}

// cached reports whether the retention cache holds a checkpoint entry for
// k and whether that entry is a checkpoint rather than a mark, without
// touching the counters or the recency.
func cached(k Spec) (entry, captured bool) {
	retention.mu.Lock()
	defer retention.mu.Unlock()
	n, ok := retention.entries.items[checkpointKey(k)]
	return ok, ok && n.val.cp != nil
}

// TestCaptureOnSecondSimulation pins the capture rule for Runners with an
// unbounded memo, which never simulate a key twice: a key's first
// simulation leaves a mark and no checkpoint, a second Runner's captures
// one (its lookup of the mark counts as a miss), and a third forks from it.
// Every Result equals a bare straight-through simulation. The crypto
// latency is one no other test uses.
func TestCaptureOnSecondSimulation(t *testing.T) {
	sp := DefaultSpec("gzip", sim.SchemeOTPLRU)
	sp.CryptoLat = 73
	forget(sp)
	want := straightThrough(t, NewRunner(cpScale), sp)
	for i, c := range []struct {
		captured   bool
		hits, miss int64
	}{{false, 0, 1}, {true, 0, 1}, {true, 1, 0}} {
		before := CheckpointCacheStats()
		got, err := NewRunner(cpScale).RunCtx(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		after := CheckpointCacheStats()
		if got != want {
			t.Errorf("Runner %d diverged from straight-through:\n got %+v\nwant %+v", i+1, got, want)
		}
		if entry, captured := cached(sp); !entry || captured != c.captured {
			t.Errorf("after Runner %d: entry %v, checkpoint %v; want an entry, checkpoint %v", i+1, entry, captured, c.captured)
		}
		if dh, dm := after.Hits-before.Hits, after.Misses-before.Misses; dh != c.hits || dm != c.miss {
			t.Errorf("Runner %d: checkpoint hits +%d, misses +%d; want +%d, +%d", i+1, dh, dm, c.hits, c.miss)
		}
	}
}

// TestBoundedRunnerCapturesFirst: a Runner whose memo is bounded can evict
// a result and simulate its key again, so it captures on the key's first
// simulation.
func TestBoundedRunnerCapturesFirst(t *testing.T) {
	sp := DefaultSpec("gzip", sim.SchemeOTPLRU)
	sp.CryptoLat = 79
	forget(sp)
	r := NewRunner(cpScale)
	r.Capacity = 8
	if _, err := r.RunCtx(context.Background(), sp); err != nil {
		t.Fatal(err)
	}
	if _, captured := cached(sp); !captured {
		t.Error("a bounded Runner's first simulation left no checkpoint")
	}
}

// TestRunnerReplaysOutcomesAcrossSchemes: within one Runner, the first
// scheme on a benchmark records the measured phase's cache outcomes and
// every later scheme, SNC size or crypto latency on the same trace and L2
// geometry replays them; another L2 geometry records its own. Every Result
// equals a bare straight-through simulation. The scale is one no other test
// uses, because the outcome cache is process-wide.
func TestRunnerReplaysOutcomesAcrossSchemes(t *testing.T) {
	r := NewRunner(0.0203)
	base := DefaultSpec("vpr", sim.SchemeBaseline)
	mac, snc32, lat := DefaultSpec("vpr", sim.SchemeOTPMAC), DefaultSpec("vpr", sim.SchemeOTPLRU), DefaultSpec("vpr", sim.SchemeXOM)
	snc32.SNCKB = 32
	lat.CryptoLat = 102
	bigL2 := DefaultSpec("vpr", sim.SchemeOTPLRU)
	bigL2.L2KB, bigL2.L2Ways = 384, 6
	for _, c := range []struct {
		sp     Spec
		replay bool
	}{{base, false}, {mac, true}, {snc32, true}, {lat, true}, {bigL2, false}} {
		before := OutcomeCacheStats()
		got, err := r.RunCtx(context.Background(), c.sp)
		if err != nil {
			t.Fatal(err)
		}
		after := OutcomeCacheStats()
		name := c.sp.Scheme.Canonical() + "/" + c.sp.Bench
		if replayed := after.Hits > before.Hits; replayed != c.replay || after.Hits+after.Misses != before.Hits+before.Misses+1 {
			t.Errorf("%s (L2 %dKB): outcome hits %d->%d, misses %d->%d; want replay=%v",
				name, c.sp.L2KB, before.Hits, after.Hits, before.Misses, after.Misses, c.replay)
		}
		if want := straightThrough(t, r, c.sp); got != want {
			t.Errorf("%s (L2 %dKB): replayed run diverged from straight-through:\n got %+v\nwant %+v",
				name, c.sp.L2KB, got, want)
		}
	}
}

// TestRunnerReplaysWarmupAcrossCryptoLatencies: a configuration with no
// checkpoint replays the warmup outcomes another configuration of its
// benchmark and L2 geometry recorded, and its Result equals a bare
// straight-through simulation. The crypto latencies are ones no other test
// uses, so neither spec has a checkpoint; the warmup cache is keyed without
// the scale and is process-wide, so the first spec may itself hit.
func TestRunnerReplaysWarmupAcrossCryptoLatencies(t *testing.T) {
	r := NewRunner(0.0204)
	first, second := DefaultSpec("art", sim.SchemeOTPLRU), DefaultSpec("art", sim.SchemeOTPLRU)
	first.CryptoLat, second.CryptoLat = 61, 67
	if _, err := r.RunCtx(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	before := WarmupCacheStats()
	got, err := r.RunCtx(context.Background(), second)
	if err != nil {
		t.Fatal(err)
	}
	after := WarmupCacheStats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Errorf("second crypto latency: warmup hits %d->%d, misses %d->%d; want one hit and no miss",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}
	if want := straightThrough(t, r, second); got != want {
		t.Errorf("warmup-replayed run diverged from straight-through:\n got %+v\nwant %+v", got, want)
	}
}

// newCheckpoint captures a checkpoint of a fresh system of sp's
// configuration: what a warmed-up one holds, bar the sequence-number
// chunks an OTP scheme's warmup adds.
func newCheckpoint(t testing.TB, sp Spec) *sim.Checkpoint {
	t.Helper()
	sys, err := sim.New(sp.Config())
	if err != nil {
		t.Fatal(err)
	}
	cp, _ := sys.Checkpoint()
	return cp
}

// TestCheckpointCacheLRU pins the retention cache's eviction order: a get
// refreshes recency, re-putting a present key replaces its checkpoint in
// place, a mark never replaces a checkpoint, and the least-recently-used
// entry goes first once the held bytes pass the budget.
func TestCheckpointCacheLRU(t *testing.T) {
	base := DefaultSpec("gzip", sim.SchemeBaseline)
	cpA, cpB, cpD := newCheckpoint(t, base), newCheckpoint(t, base), newCheckpoint(t, base)
	cost := retained{cp: cpA}.cost()
	c := newRetainCache(2 * cost)
	a, b, d := checkpointKey(Spec{Bench: "a"}), checkpointKey(Spec{Bench: "b"}), checkpointKey(Spec{Bench: "d"})
	c.put(a, retained{cp: cpA})
	c.put(b, retained{cp: cpB})
	if got, ok := c.get(a); !ok || got.cp != cpA { // a is now most recent
		t.Fatalf("get(a) = (%p, %v), want (%p, true)", got.cp, ok, cpA)
	}
	c.put(b, retained{cp: cpB}) // refresh in place: no eviction, b becomes most recent
	c.put(a, retained{})        // a mark leaves a's checkpoint in place
	if got, ok := c.get(a); !ok || got.cp != cpA {
		t.Fatalf("get(a) after a mark = (%p, %v), want (%p, true)", got.cp, ok, cpA)
	}
	c.get(b) // b is most recent again
	if st := c.kind(checkpointKind); st.Size != 2 || st.Bytes != 2*cost || st.Evictions != 0 {
		t.Fatalf("after re-put: %+v, want size 2, %d bytes and no evictions", st, 2*cost)
	}
	c.put(d, retained{cp: cpD}) // evicts a, the least recently used
	if _, ok := c.get(a); ok {
		t.Error("least-recently-used checkpoint survived eviction")
	}
	for _, k := range []retainKey{b, d} {
		if _, ok := c.get(k); !ok {
			t.Errorf("checkpoint %s evicted, want it kept", k.spec.Bench)
		}
	}
	if st := c.kind(checkpointKind); st.Size != 2 || st.Bytes != 2*cost || st.Capacity != 2*cost ||
		st.Evictions != 1 || st.Hits != 5 || st.Misses != 1 {
		t.Errorf("stats = %+v, want size 2, %d bytes of %[2]d, 1 eviction, 5 hits, 1 miss", st, 2*cost)
	}
}

// TestForkedFiguresByteIdentical renders every figure through two
// independent Runners: the second answers nothing from its own memo, so its
// measurement runs fork from the checkpoints of the first wherever possible.
// The first Runner's memo is bounded (and holds every key), so it captures a
// checkpoint on each first simulation. Every rendered table must come out
// byte-identical.
func TestForkedFiguresByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	r1 := NewRunner(cpScale)
	r1.Jobs = 4
	r1.Capacity = 1 << 10
	first := r1.All()
	r2 := NewRunner(cpScale)
	r2.Jobs = 4
	second := r2.All()
	if len(first) != len(second) {
		t.Fatalf("figure counts differ: %d vs %d", len(first), len(second))
	}
	names := Names()
	for i := range first {
		if a, b := first[i].Render(), second[i].Render(); a != b {
			t.Errorf("%s: forked rerun rendered differently\nfirst:\n%s\nsecond:\n%s", names[i], a, b)
		}
	}
}

// TestRunnerStoreWarmStart covers the persistence tentpole at the Runner
// level: a second Runner over the same store directory answers from disk
// without simulating, and a damaged entry degrades to recompute — with the
// same Result — rather than serving garbage or failing.
func TestRunnerStoreWarmStart(t *testing.T) {
	dir := t.TempDir()
	sp := DefaultSpec("gzip", sim.SchemeOTPLRU)

	st1, err := store.Open(dir, sim.TimingModelVersion)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunner(cpScale)
	r1.Store = st1
	want, err := r1.RunCtx(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if s := st1.Stats(); s.Writes != 1 || s.Misses != 1 {
		t.Fatalf("first run store stats = %+v, want 1 miss + 1 write", s)
	}

	// Cold process, warm disk: no simulation at all.
	st2, err := store.Open(dir, sim.TimingModelVersion)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(cpScale)
	r2.Store = st2
	got, err := r2.RunCtx(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("stored result differs:\n got %+v\nwant %+v", got, want)
	}
	if r2.Simulations() != 0 {
		t.Errorf("warm-started Runner ran %d simulations, want 0", r2.Simulations())
	}
	if s := st2.Stats(); s.Hits != 1 {
		t.Errorf("warm start store stats = %+v, want 1 hit", s)
	}

	// Damage the entry: the next cold Runner must recompute gracefully.
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("entry files = %v (err %v), want exactly 1", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := store.Open(dir, sim.TimingModelVersion)
	if err != nil {
		t.Fatal(err)
	}
	r3 := NewRunner(cpScale)
	r3.Store = st3
	got3, err := r3.RunCtx(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if got3 != want {
		t.Errorf("recomputed result differs:\n got %+v\nwant %+v", got3, want)
	}
	if r3.Simulations() != 1 {
		t.Errorf("Runner over a corrupt store ran %d simulations, want 1", r3.Simulations())
	}
	if s := st3.Stats(); s.Corrupt != 1 || s.Writes != 1 {
		t.Errorf("corrupt-entry store stats = %+v, want corrupt=1 writes=1 (repaired)", s)
	}

	// And the repair took: a fourth Runner warm-starts again.
	st4, err := store.Open(dir, sim.TimingModelVersion)
	if err != nil {
		t.Fatal(err)
	}
	r4 := NewRunner(cpScale)
	r4.Store = st4
	if got4, err := r4.RunCtx(context.Background(), sp); err != nil || got4 != want {
		t.Errorf("after repair: result %+v (err %v), want %+v", got4, err, want)
	}
	if r4.Simulations() != 0 {
		t.Errorf("post-repair Runner ran %d simulations, want 0", r4.Simulations())
	}
}
