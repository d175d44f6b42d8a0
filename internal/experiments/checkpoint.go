package experiments

// Post-warmup checkpoint forking (SMARTS-style: Wunderlich et al., ISCA
// 2003). Every simulation of a Spec replays the same trace, and its
// warmup prefix is never scaled (workload.Profile.WarmupRefs), so the
// machine state at the warmup/measurement boundary is a pure function of
// the Spec — independent of the Runner's Scale, which only stretches the
// measured phase. simulate() therefore checkpoints the boundary state of a
// configuration and forks every later measurement run of it (typically
// from a different Runner instance: the perf harness, a restarted golden
// job, repeated secsimd requests after memo eviction) from the checkpoint
// instead of re-simulating the warmup. A checkpoint is a sim.System of the
// spec's configuration that never runs; a fork builds a fresh System and
// copies the checkpoint's components into it, one copy per component.
//
// A checkpoint is captured only where a fork can follow, because an OTP
// checkpoint holds the 32K-entry SNC with its tag index and the scheme's
// sequence-number tables (about 1.3–1.6 MB at the default geometry). A
// Runner whose result memo is unbounded never simulates a key twice, so
// its first simulation of a key leaves only a mark — an entry with no
// checkpoint, in the same LRU — and the key's second simulation in the
// process (another Runner's) captures the checkpoint later ones fork from:
// "cache on second hit". A Runner with a bounded memo (Capacity > 0) can
// evict a result and simulate its key again, so it captures on the first
// simulation.
//
// Cache outcome replay (see sim/outcomes.go) is a second, narrower reuse.
// No scheme and no timing can change what the caches hold, so the L1/L2
// outcomes of a phase are a pure function of its records, the cache
// geometry — the Spec fields that reach a cache.Config, here only the L2
// size and ways — and the caches' start state. The warmup prefix starts
// from empty caches and is never scaled, so its outcomes are a pure
// function of (benchmark, L2 geometry), the warmupKey; that leaves the
// warmed cache state scheme-independent too, so the measured phase's
// outcomes are a pure function of (benchmark, Scale, L2 geometry), the
// outcomeKey. simulate() records each key's outcomes once and replays them
// under every other scheme, SNC and crypto setting: a replay skips the
// cache lookups, the bulk of a record's cost, and leaves the system exactly
// where a direct run would. On a checkpoint miss the warmup replays or
// records, and the checkpoint is captured after it as before; every
// simulation then replays or records its measured phase. A replay checks
// that the system's caches are where the recording started and refuses
// otherwise; simulate() then records afresh. A warmup recording costs one
// byte per record, one line address per victim or fill (2.3 MB over the 11
// benchmarks at the default geometry), and the caches' start and end state
// (144 KB at the default geometry).
//
// All three caches are package-level and bounded. Within one Runner with an
// unbounded memo the result memo guarantees at most one simulation per key,
// so checkpoints pay off when Runners come and go or a bounded memo
// evicts; outcomes pay off within a Runner as well, across the schemes of
// one benchmark, and warmups across the schemes, SNCs and crypto latencies
// of one benchmark that have no checkpoint yet. Entries are immutable once
// published (a restore or replay copies out of them, never into them), so
// concurrent readers of one entry are safe and a racing duplicate put is
// benign (last write wins, both values are equivalent by construction; a
// mark never overwrites a value).

import (
	"sync"

	"secureproc/internal/sim"
)

// checkpointCapacity bounds the checkpoint cache, marks and checkpoints
// alike. The full figure set needs ~150 distinct configurations, which the
// bound holds comfortably. A checkpoint at the default geometry holds
// 75 KB (baseline, XOM: the caches) to 1.3–1.6 MB (OTP schemes: the SNC's
// entries, sets and tag index, and sequence tables besides), and up to
// 2.6 MB at Figure 6's 128 KB SNC, so a cache full of checkpoints at the
// figures' geometries retains at most about 670 MB; a mark holds only its
// key. Only configurations simulated twice, or by a Runner with a bounded
// memo, hold a checkpoint. Under the Spec caps an OTP checkpoint grows to
// about 11.7 MB — a 512 KB direct-mapped SNC's 256K entries, sets and
// 512K-cell tag index, a 4 MB L2 — and worst-case retention to about
// 3.0 GB.
const checkpointCapacity = 256

// outcomeCapacity bounds the outcome cache. The figures touch at most 22
// (benchmark, L2 geometry) pairs per scale: 11 benchmarks at the default
// L2 plus Figure 8's larger one. An entry holds about 1.1 bytes per
// measured record plus the three caches' start and end state (144 KB at
// the default geometry), under 0.5 MB at scale 1.0.
const outcomeCapacity = 32

// warmupCapacity bounds the warmup outcome cache: like outcomeCapacity, it
// holds the 22 (benchmark, L2 geometry) pairs the figures use, at any
// scale. An entry holds 1.3–4.5 bytes per warmup record (44K–158K records,
// so at most 0.6 MB) plus the three caches' start and end state.
const warmupCapacity = 32

// SharedCacheStats is a point-in-time snapshot of a process-wide cache's
// counters (post-warmup checkpoints, warmup or measured-phase outcomes), exported
// for diagnostics and the secsimd /metrics endpoint.
type SharedCacheStats struct {
	// Size is the number of cached entries. In the checkpoint cache it
	// counts marks (a configuration simulated once, with no checkpoint)
	// as well as checkpoints.
	Size int `json:"size"`
	// Capacity is the cache bound.
	Capacity int `json:"capacity"`
	// Hits counts simulations that found an entry: a checkpoint to fork
	// from (warmup skipped) or outcomes to replay (cache lookups skipped).
	Hits int64 `json:"hits"`
	// Misses counts simulations that found none: they ran the warmup, or
	// recorded the warmup or the measured phase, and left an entry behind.
	// A checkpoint lookup that finds only a mark is a miss, so the
	// checkpoint cache's Hits/(Hits+Misses) is forks per simulation.
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64 `json:"evictions"`
}

// CheckpointStats is the checkpoint cache's name for its counters.
type CheckpointStats = SharedCacheStats

// sharedCache is a mutex-guarded LRU map of immutable simulation state,
// held by pointer: a nil entry is a mark (see checkpointCapacity). No
// singleflight: the result memo already deduplicates within a Runner, and a
// duplicate computation across Runners or schemes is rare and harmless.
type sharedCache[K comparable, V any] struct {
	mu      sync.Mutex
	entries lru[K, *V]
	hits    int64
	misses  int64
}

// checkpointCache holds post-warmup checkpoints, and marks, by Spec.
type checkpointCache = sharedCache[Spec, sim.Checkpoint]

// outcomeKey identifies one recorded measured phase: the trace and the
// cache geometry, and nothing else a Spec carries.
type outcomeKey struct {
	bench        string
	scale        float64
	l2KB, l2Ways int
}

// warmupKey identifies one recorded warmup prefix: the benchmark and the
// cache geometry. Like the checkpoint key it leaves out the scale, which
// never reaches the warmup prefix.
type warmupKey struct {
	bench        string
	l2KB, l2Ways int
}

var (
	// checkpoints is keyed by Spec. The key carries the full
	// configuration (benchmark, scheme, SNC and L2 geometry, crypto
	// latency) and deliberately not the scale — see the file comment.
	checkpoints = &checkpointCache{entries: newLRU[Spec, *sim.Checkpoint](checkpointCapacity)}
	// outcomes is keyed by outcomeKey.
	outcomes = &sharedCache[outcomeKey, sim.Outcomes]{entries: newLRU[outcomeKey, *sim.Outcomes](outcomeCapacity)}
	// warmups is keyed by warmupKey.
	warmups = &sharedCache[warmupKey, sim.Outcomes]{entries: newLRU[warmupKey, *sim.Outcomes](warmupCapacity)}
)

// get returns the value for k, nil for none or a mark, and whether k has
// an entry at all, refreshing its recency. The hit and miss counters are
// charged here, a mark as a miss: every simulate() call asks the
// checkpoint and outcome caches exactly once, and the warmup cache once on
// a checkpoint miss.
func (c *sharedCache[K, V]) get(k K) (*V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.entries.get(k)
	if !ok || n.val == nil {
		c.misses++
		return nil, ok
	}
	c.hits++
	return n.val, true
}

// put caches v for k, or a mark when v is nil, evicting the
// least-recently-used entry beyond capacity. A mark never replaces a
// value: a racing Runner's mark must not drop the checkpoint another just
// captured.
func (c *sharedCache[K, V]) put(k K, v *V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.entries.get(k); ok {
		if v != nil {
			n.val = v
		}
		return
	}
	c.entries.link(c.entries.add(k, v))
}

func (c *sharedCache[K, V]) stats() SharedCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return SharedCacheStats{
		Size:      c.entries.len(),
		Capacity:  c.entries.cap,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.entries.evictions,
	}
}

// CheckpointCacheStats snapshots the process-wide checkpoint cache counters.
func CheckpointCacheStats() CheckpointStats { return checkpoints.stats() }

// OutcomeCacheStats snapshots the process-wide outcome cache counters.
func OutcomeCacheStats() SharedCacheStats { return outcomes.stats() }

// WarmupCacheStats snapshots the process-wide warmup outcome cache counters.
func WarmupCacheStats() SharedCacheStats { return warmups.stats() }
