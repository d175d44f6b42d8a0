package experiments

// Post-warmup checkpoint forking (SMARTS/SimPoint-style). Every simulation
// of a runKey replays the same trace, and its warmup prefix is never scaled
// (workload.Profile.WarmupRefs), so the machine state at the
// warmup/measurement boundary is a pure function of the runKey — independent
// of the Runner's Scale, which only stretches the measured phase. simulate()
// therefore warms each configuration up once, checkpoints the boundary
// state, and forks every later measurement run (typically from a different
// Runner instance: the perf harness, a restarted golden job, repeated
// secsimd requests after memo eviction) from the checkpoint instead of
// re-simulating the warmup.
//
// The cache is package-level and bounded: within one Runner the result memo
// already guarantees at most one simulation per key, so checkpoints pay off
// exactly when Runners come and go. Entries are deep snapshots (a restore
// copies out of them, never into them), so concurrent restores of one entry
// are safe and a racing duplicate put is benign (last write wins, both
// values are equivalent by construction).

import (
	"sync"

	"secureproc/internal/sim"
)

// checkpointCapacity bounds the checkpoint cache. The full figure set needs
// ~150 distinct configurations; OTP checkpoints are the largest (SNC
// contents + sequence tables, low single-digit MB each), so the bound keeps
// worst-case retention in the low hundreds of MB while comfortably holding
// every configuration the batch sweeps touch.
const checkpointCapacity = 256

// CheckpointStats is a point-in-time snapshot of the checkpoint cache's
// counters, exported for diagnostics and the secsimd /metrics endpoint.
type CheckpointStats struct {
	// Size is the number of cached checkpoints.
	Size int `json:"size"`
	// Capacity is the cache bound.
	Capacity int `json:"capacity"`
	// Hits counts simulations forked from a checkpoint (warmup skipped).
	Hits int64 `json:"hits"`
	// Misses counts simulations that ran their warmup (and, when the scheme
	// supports snapshotting, left a checkpoint behind).
	Misses int64 `json:"misses"`
	// Evictions counts checkpoints dropped by the LRU bound.
	Evictions int64 `json:"evictions"`
}

// checkpointCache is a mutex-guarded LRU map of post-warmup checkpoints.
// No singleflight: the result memo already deduplicates within a Runner, and
// a cross-Runner duplicate warmup is rare and harmless.
type checkpointCache struct {
	mu      sync.Mutex
	entries lru[runKey, *sim.Checkpoint]
	hits    int64
	misses  int64
}

// checkpoints is the process-wide cache keyed by runKey. The key carries the
// full configuration (benchmark, scheme, SNC and L2 geometry, crypto
// latency) and deliberately not the scale — see the file comment.
var checkpoints = &checkpointCache{entries: newLRU[runKey, *sim.Checkpoint](checkpointCapacity)}

// get returns the checkpoint for k, refreshing its recency. The miss
// counter is charged here: every simulate() call asks exactly once.
func (c *checkpointCache) get(k runKey) (*sim.Checkpoint, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.entries.get(k)
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	return n.val, true
}

// put caches the checkpoint for k, evicting the least-recently-used entry
// beyond capacity.
func (c *checkpointCache) put(k runKey, cp *sim.Checkpoint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.entries.get(k); ok {
		n.val = cp
		return
	}
	c.entries.link(c.entries.add(k, cp))
}

func (c *checkpointCache) stats() CheckpointStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CheckpointStats{
		Size:      c.entries.len(),
		Capacity:  c.entries.cap,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.entries.evictions,
	}
}

// CheckpointCacheStats snapshots the process-wide checkpoint cache counters.
func CheckpointCacheStats() CheckpointStats { return checkpoints.stats() }
