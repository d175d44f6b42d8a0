package experiments

import (
	"fmt"
	"sync"
	"testing"

	"secureproc/internal/sim"
	"secureproc/internal/workload"
)

// cappedSpec is the largest machine a spec may ask for: a 512 KB
// direct-mapped SNC and a 4 MB L2.
func cappedSpec(scheme sim.SchemeRef) Spec {
	sp := DefaultSpec("gcc", scheme)
	sp.SNCKB, sp.SNCWays, sp.L2KB, sp.L2Ways = MaxSNCKB, 1, MaxL2KB, 4
	return sp
}

// held returns the bytes c's entries are charged, checking that the
// per-kind counters agree with the LRU's own sum.
func held(t *testing.T, c *retainCache) int {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, st := range c.stats {
		n += st.Bytes
	}
	if n != c.entries.used {
		t.Fatalf("kinds hold %d bytes, the LRU %d", n, c.entries.used)
	}
	return n
}

// TestRetainBudgetBoundsMarks: a stream of never-seen specs leaves a mark
// each, and every mark is charged, so 100,000 of them mixed with capped
// checkpoints never hold more than the budget.
func TestRetainBudgetBoundsMarks(t *testing.T) {
	cps := []*sim.Checkpoint{
		newCheckpoint(t, cappedSpec(sim.SchemeOTPLRU)),
		newCheckpoint(t, cappedSpec(sim.SchemeOTPMAC)),
		newCheckpoint(t, cappedSpec(sim.SchemeOTPPrecompute)),
	}
	budget := 3 * retained{cp: cps[2]}.cost()
	c := newRetainCache(budget)
	for i := range 100_000 {
		sp := DefaultSpec("gzip", sim.SchemeOTPLRU)
		sp.CryptoLat = uint64(i)
		v := retained{}
		if i%1000 == 0 {
			v.cp = cps[i/1000%len(cps)]
		}
		c.put(checkpointKey(sp), v)
		if n := held(t, c); n > budget {
			t.Fatalf("after put %d: %d bytes held, budget %d", i, n, budget)
		}
	}
	st := c.kind(checkpointKind)
	if st.Evictions == 0 || st.Size > budget/entryBytes {
		t.Errorf("stats %+v: want evictions and at most %d entries", st, budget/entryBytes)
	}
}

// TestRetainOversizedEntryNotRetained: an entry that alone costs more than
// the budget is not retained, and putting it evicts nothing, whether its
// key is new or holds a mark.
func TestRetainOversizedEntryNotRetained(t *testing.T) {
	small := newCheckpoint(t, DefaultSpec("gzip", sim.SchemeBaseline))
	big := newCheckpoint(t, cappedSpec(sim.SchemeOTPLRU))
	c := newRetainCache(4 * retained{cp: small}.cost())
	kept, marked := checkpointKey(DefaultSpec("gzip", sim.SchemeBaseline)), checkpointKey(DefaultSpec("mcf", sim.SchemeOTPLRU))
	c.put(kept, retained{cp: small})
	c.put(marked, retained{})
	before := c.kind(checkpointKind)
	c.put(checkpointKey(cappedSpec(sim.SchemeOTPLRU)), retained{cp: big})
	c.put(marked, retained{cp: big})
	if after := c.kind(checkpointKind); after != before {
		t.Errorf("oversized puts changed the cache: %+v, was %+v", after, before)
	}
	if v, ok := c.get(kept); !ok || v.cp != small {
		t.Error("oversized put dropped a retained checkpoint")
	}
	if v, ok := c.get(marked); !ok || v.cp != nil {
		t.Errorf("oversized put over a mark: entry %v, checkpoint %v; want the mark", ok, v.cp != nil)
	}
}

// TestRetainCacheConcurrent drives one retention cache from many
// goroutines, each putting and getting marks, checkpoints and recordings
// of shared keys and of its own. The budget holds everything, so nothing
// is evicted, and a mark never replaces a checkpoint: a goroutine that put
// a checkpoint always gets one back. Run it under -race.
func TestRetainCacheConcurrent(t *testing.T) {
	cp := newCheckpoint(t, DefaultSpec("gzip", sim.SchemeBaseline))
	sys, err := sim.New(DefaultSpec("gzip", sim.SchemeBaseline).Config())
	if err != nil {
		t.Fatal(err)
	}
	rec := sys.RunWarmupRecord([]workload.Record{{Addr: 0x200, Kind: workload.Load}, {Addr: 0x9000, Kind: workload.Store}})
	const workers, keys = 8, 16
	c := newRetainCache(1 << 30)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				shared := DefaultSpec("gzip", sim.SchemeOTPLRU)
				shared.CryptoLat = uint64(i % keys)
				own := shared
				own.Bench = fmt.Sprintf("w%d", w)
				for _, sp := range []Spec{shared, own} {
					k := checkpointKey(sp)
					c.put(k, retained{})
					c.put(k, retained{cp: cp})
					c.put(k, retained{})
					if v, _ := c.get(k); v.cp != cp {
						t.Errorf("worker %d: %s lost its checkpoint to a mark", w, sp.Bench)
						return
					}
					c.put(warmupKey(sp), retained{rec: rec})
					c.put(outcomeKey(sp, 0.5), retained{rec: rec})
					if v, ok := c.get(outcomeKey(sp, 0.5)); !ok || v.rec != rec {
						t.Errorf("worker %d: %s lost its recording", w, sp.Bench)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	held(t, c)
	for _, k := range []retainKind{checkpointKind, warmupKind, outcomeKind} {
		if st := c.kind(k); st.Evictions != 0 {
			t.Errorf("kind %d: %+v, want no evictions", k, st)
		}
	}
	// Each worker's own bench adds 16 keys of each kind to the shared 16;
	// recordings ignore the crypto latency, so they add one each.
	if st := c.kind(checkpointKind); st.Size != keys*(workers+1) {
		t.Errorf("checkpoints: %d entries, want %d", st.Size, keys*(workers+1))
	}
	if st := c.kind(outcomeKind); st.Size != workers+1 {
		t.Errorf("outcomes: %d entries, want %d", st.Size, workers+1)
	}
}

// TestFigureSetFitsBudget runs the figure set at the golden scale through
// two fresh Runners in one process, the way a figure job rerun or the
// perf harness does: the first leaves marks and recordings, the second
// captures every configuration's checkpoint. Under the real budget nothing
// may be evicted, or the figure sweep would warm up again what it now
// forks.
func TestFigureSetFitsBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("two full figure sweeps")
	}
	saved := retention
	retention = newRetainCache(retainBudget)
	defer func() { retention = saved }()
	for range 2 {
		r := NewRunner(goldenScale)
		r.Jobs = 4
		r.All()
	}
	total := held(t, retention)
	for _, k := range []retainKind{checkpointKind, warmupKind, outcomeKind} {
		st := retention.kind(k)
		t.Logf("kind %d: %d entries, %.1f MB", k, st.Size, float64(st.Bytes)/(1<<20))
		if st.Evictions != 0 {
			t.Errorf("kind %d: %d evictions under the %d MB budget", k, st.Evictions, retainBudget>>20)
		}
	}
	t.Logf("held %.1f MB of %d MB", float64(total)/(1<<20), retainBudget>>20)
}
