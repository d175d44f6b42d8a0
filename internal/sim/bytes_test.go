package sim

import (
	"fmt"
	"runtime"
	"testing"

	"secureproc/internal/workload"
)

// byteGeometries are the geometries TestCheckpointBytesMatchAllocation
// captures at: the default, the largest SNC a spec may ask for (512 KB,
// direct-mapped), the largest L2 (4 MB), and both at once, the largest
// checkpoint a spec can pin.
var byteGeometries = []struct {
	name           string
	sncKB, sncWays int
	l2KB, l2Ways   int
}{
	{"default", 64, 0, 256, 4},
	{"snc-cap", 512, 1, 256, 4},
	{"l2-cap", 64, 0, 4096, 4},
	{"both-caps", 512, 1, 4096, 4},
}

// gccRecords returns gcc's trace at scale and the length of its warmup
// prefix, which no scale shortens.
func gccRecords(t *testing.T, scale float64) ([]workload.Record, int) {
	t.Helper()
	prof, ok := workload.ByName("gcc")
	if !ok {
		t.Fatal("no profile gcc")
	}
	recs, err := workload.Materialize(prof, scale)
	if err != nil {
		t.Fatal(err)
	}
	return recs, min(prof.WarmupRefs(), len(recs))
}

// totalAlloc returns the bytes f allocates, garbage included.
func totalAlloc(f func()) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc - before.TotalAlloc)
}

// liveGrowth returns how much the live heap grows across f, collected
// before and after: what f's results keep reachable, not its garbage.
// HeapAlloc counts the free slots of the spans each P has cached as in
// use, so a reading is off by up to some tens of KB; measure something
// many times that size.
func liveGrowth(f func()) int {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int(after.HeapAlloc) - int(before.HeapAlloc)
}

// within5 fails t unless got is within 5% of want.
func within5(t *testing.T, what string, got, want int) {
	t.Helper()
	if d := float64(got-want) / float64(want); d < -0.05 || d > 0.05 {
		t.Errorf("%s: Bytes() = %d, measured %d (%+.1f%%), want within 5%%", what, got, want, 100*d)
	} else {
		t.Logf("%s: Bytes() = %d (%.2f MB), measured %d (%+.1f%%)", what, got, float64(got)/(1<<20), want, 100*d)
	}
}

// TestCheckpointBytesMatchAllocation: a checkpoint's Bytes is what
// capturing it allocates, within 5%, for every scheme after gcc's warmup
// at every geometry in byteGeometries. The experiment layer charges its
// retention budget with Bytes, so this is what bounds that budget in real
// bytes.
func TestCheckpointBytesMatchAllocation(t *testing.T) {
	recs, warm := gccRecords(t, 0.05)
	for _, g := range byteGeometries {
		for _, ref := range snapshotSchemes {
			cfg := DefaultConfig()
			cfg.Scheme = ref
			cfg.SNC.SizeBytes, cfg.SNC.Ways = g.sncKB<<10, g.sncWays
			cfg.L2.SizeBytes, cfg.L2.Ways = g.l2KB<<10, g.l2Ways
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sys.RunWarmup(workload.Replay(recs[:warm]))
			var cp *Checkpoint
			alloc := totalAlloc(func() { cp, _ = sys.Checkpoint() })
			within5(t, fmt.Sprintf("%s/%s checkpoint", g.name, ref.Name), cp.Bytes(), alloc)
		}
	}
}

// TestOutcomesBytesMatchLiveHeap: a warmup and a measured recording's
// Bytes is what the recording keeps live, within 5%. Recording grows its
// address list by appending, so its garbage is left out by measuring the
// live heap, over enough recordings of gcc at scale 1 that the reading's
// slack is small beside them. The recordings are made under baseline,
// whose run allocates nothing of its own.
func TestOutcomesBytesMatchLiveHeap(t *testing.T) {
	recs, warm := gccRecords(t, 1)
	const n = 16
	var syss [n]*System
	for i := range syss {
		syss[i] = newCheckpointSystem(t, SchemeBaseline)
	}
	var warmups, measured [n]*Outcomes
	live := liveGrowth(func() {
		for i, s := range syss {
			warmups[i] = s.RunWarmupRecord(recs[:warm])
		}
	})
	within5(t, fmt.Sprintf("%d gcc warmup recordings", n), n*warmups[0].Bytes(), live)
	live = liveGrowth(func() {
		for i, s := range syss {
			_, measured[i] = s.RunMeasuredRecord(recs[warm:])
		}
	})
	within5(t, fmt.Sprintf("%d gcc measured recordings", n), n*measured[0].Bytes(), live)
	runtime.KeepAlive(syss)
	runtime.KeepAlive(recs)
	runtime.KeepAlive(warmups)
	runtime.KeepAlive(measured)
}

// TestBytesAllocatesNothing: the size methods run under the retention
// cache's lock, on every put.
func TestBytesAllocatesNothing(t *testing.T) {
	recs, warm := gccRecords(t, 0.05)
	sys := newCheckpointSystem(t, SchemeOTPPrecompute)
	o := sys.RunWarmupRecord(recs[:warm])
	cp := checkpointOf(t, sys)
	n := 0
	if avg := testing.AllocsPerRun(10, func() { n += cp.Bytes() + o.Bytes() }); avg != 0 {
		t.Errorf("Bytes: %.1f allocs per call, want 0", avg)
	}
}
