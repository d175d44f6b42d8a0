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
// otherwise; simulate() then records afresh.
//
// Checkpoints, marks and both kinds of recording share one process-wide
// LRU, bounded by one constant byte budget: each entry is charged the
// bytes it holds (sim.Checkpoint.Bytes, sim.Outcomes.Bytes) plus a fixed
// cost for its key and node, so a mark costs that fixed cost alone and a
// stream of never-seen specs cannot grow the map without bound. Within one
// Runner with an unbounded memo the result memo guarantees at most one
// simulation per key, so checkpoints pay off when Runners come and go or a
// bounded memo evicts; outcomes pay off within a Runner as well, across
// the schemes of one benchmark, and warmups across the schemes, SNCs and
// crypto latencies of one benchmark that have no checkpoint yet. Entries
// are immutable once published (a restore or replay copies out of them,
// never into them), so concurrent readers of one entry are safe and a
// racing duplicate put is benign (last write wins, both values are
// equivalent by construction; a mark never overwrites a value).

import (
	"sync"
	"unsafe"

	"secureproc/internal/sim"
)

// retainBudget bounds the bytes the retention cache holds, so it is the
// worst-case retention under any mix of specs, the Spec caps included: a
// capped OTP checkpoint holds about 11.7 MB, and the budget holds about 22
// of them. The figure set, run by two fresh Runners so the second captures
// every configuration, holds 147 MB at the golden scale: 154 checkpoints
// (133 MB) and 22 + 22 recordings (14 MB; TestFigureSetFitsBudget). At
// scale 1 its 22 measured recordings hold about 8 MB instead of 4, so the
// set holds about 151 MB. perfbench's sweep-forked grid at scale 1 holds
// 35 MB: 44 checkpoints and 11 + 11 recordings. 256 MB keeps all of that
// with 100 MB to spare.
const retainBudget = 256 << 20

// SharedCacheStats is a point-in-time snapshot of one kind of retained
// simulation state (post-warmup checkpoints, warmup or measured-phase
// outcomes), exported for diagnostics and the secsimd /metrics endpoint.
type SharedCacheStats struct {
	// Size is the number of entries of this kind. For checkpoints it
	// counts marks (a configuration simulated once, with no checkpoint)
	// as well as checkpoints.
	Size int `json:"size"`
	// Bytes is what this kind's entries are charged against the budget.
	Bytes int `json:"bytes"`
	// Capacity is the budget in bytes, shared by all three kinds: their
	// Bytes together never exceed it.
	Capacity int `json:"capacity"`
	// Hits counts simulations that found an entry: a checkpoint to fork
	// from (warmup skipped) or outcomes to replay (cache lookups skipped).
	Hits int64 `json:"hits"`
	// Misses counts simulations that found none: they ran the warmup, or
	// recorded the warmup or the measured phase, and left an entry behind.
	// A checkpoint lookup that finds only a mark is a miss, so the
	// checkpoint cache's Hits/(Hits+Misses) is forks per simulation.
	Misses int64 `json:"misses"`
	// Evictions counts entries of this kind dropped by the budget.
	Evictions int64 `json:"evictions"`
}

// CheckpointStats is the checkpoint cache's name for its counters.
type CheckpointStats = SharedCacheStats

// retainKind is what a retained entry holds; each kind keeps its own
// counters and is its own /metrics block.
type retainKind uint8

const (
	checkpointKind retainKind = iota
	warmupKind
	outcomeKind
)

// retainKey names one retained entry. A checkpoint's spec is its whole
// Spec, and deliberately not the scale (see the file comment). A
// recording's spec holds only what reaches a cache.Config, the benchmark
// and the L2 geometry, and a measured recording adds the scale; the warmup
// prefix is never scaled.
type retainKey struct {
	kind  retainKind
	spec  Spec
	scale float64
}

func checkpointKey(s Spec) retainKey { return retainKey{kind: checkpointKind, spec: s} }

func warmupKey(s Spec) retainKey {
	return retainKey{kind: warmupKind, spec: Spec{Bench: s.Bench, L2KB: s.L2KB, L2Ways: s.L2Ways}}
}

func outcomeKey(s Spec, scale float64) retainKey {
	k := warmupKey(s)
	k.kind, k.scale = outcomeKind, scale
	return k
}

// retained is one entry's value: a checkpoint, a recording, or neither for
// a mark.
type retained struct {
	cp  *sim.Checkpoint
	rec *sim.Outcomes
}

// entryBytes is what every entry is charged beyond its value: its LRU node
// and its map slot (key and pointer). A mark costs this alone.
const entryBytes = int(unsafe.Sizeof(lruNode[retainKey, retained]{}) + unsafe.Sizeof(retainKey{}) + 8)

// cost returns what the entry holding v is charged.
func (v retained) cost() int {
	switch {
	case v.cp != nil:
		return entryBytes + v.cp.Bytes()
	case v.rec != nil:
		return entryBytes + v.rec.Bytes()
	}
	return entryBytes
}

// retainCache is a mutex-guarded LRU of immutable simulation state bounded
// by a byte budget. No singleflight: the result memo already deduplicates
// within a Runner, and a duplicate computation across Runners or schemes is
// rare and harmless.
type retainCache struct {
	mu      sync.Mutex
	entries lru[retainKey, retained]
	stats   [3]SharedCacheStats // by retainKind; Capacity is filled in on read
}

func newRetainCache(budget int) *retainCache {
	return &retainCache{entries: newLRU[retainKey, retained](budget)}
}

// retention is the process's one retention cache.
var retention = newRetainCache(retainBudget)

// get returns the value for k, empty for none or a mark, and whether k has
// an entry at all, refreshing its recency. The hit and miss counters of k's
// kind are charged here, a mark as a miss: every simulate() call asks for
// a checkpoint and for a measured recording exactly once, and for a warmup
// recording once on a checkpoint miss.
func (c *retainCache) get(k retainKey) (retained, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.entries.get(k)
	if !ok || n.val == (retained{}) {
		c.stats[k.kind].Misses++
		return retained{}, ok
	}
	c.stats[k.kind].Hits++
	return n.val, true
}

// put retains v for k, or a mark when v is empty, then evicts
// least-recently-used entries until the held bytes fit the budget. A mark
// never replaces a value: a racing Runner's mark must not drop the
// checkpoint another just captured. A value that alone costs more than the
// budget is not retained, so it cannot flush the cache.
func (c *retainCache) put(k retainKey, v retained) {
	cost := v.cost()
	c.mu.Lock()
	defer c.mu.Unlock()
	if cost > c.entries.cap {
		return
	}
	st := &c.stats[k.kind]
	if n, ok := c.entries.get(k); ok {
		if v == (retained{}) {
			return
		}
		st.Bytes += cost - n.cost
		c.entries.set(n, v, cost)
	} else {
		st.Size++
		st.Bytes += cost
		c.entries.link(c.entries.add(k, v, cost))
	}
	for n := c.entries.evict(); n != nil; n = c.entries.evict() {
		c.dropped(n)
		c.stats[n.key.kind].Evictions++
	}
}

// dropped uncounts n, which has left the LRU.
func (c *retainCache) dropped(n *lruNode[retainKey, retained]) {
	st := &c.stats[n.key.kind]
	st.Size--
	st.Bytes -= n.cost
}

// kind snapshots one kind's counters.
func (c *retainCache) kind(k retainKind) SharedCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats[k]
	st.Capacity = c.entries.cap
	return st
}

// CheckpointCacheStats snapshots the process-wide checkpoint counters.
func CheckpointCacheStats() CheckpointStats { return retention.kind(checkpointKind) }

// OutcomeCacheStats snapshots the process-wide measured-phase outcome
// counters.
func OutcomeCacheStats() SharedCacheStats { return retention.kind(outcomeKind) }

// WarmupCacheStats snapshots the process-wide warmup outcome counters.
func WarmupCacheStats() SharedCacheStats { return retention.kind(warmupKind) }
