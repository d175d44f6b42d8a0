package sim

import (
	"reflect"
	"testing"

	"secureproc/internal/workload"
)

// snapshotSchemes covers every registered scheme family: checkpointing is
// part of core.Scheme, so Checkpoint must succeed everywhere.
var snapshotSchemes = []SchemeRef{
	SchemeBaseline, SchemeXOM, SchemeOTPLRU, SchemeOTPNoRepl,
	SchemeOTPMAC, SchemeOTPPrecompute,
}

func newCheckpointSystem(t testing.TB, ref SchemeRef) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Scheme = ref
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestSplitRunMatchesStraightThrough locks the contract RunWarmup and
// RunMeasured are documented with: splitting a run at the warmup boundary is
// event-for-event identical to the straight-through Run, including the
// degenerate all-warmup and no-warmup splits.
func TestSplitRunMatchesStraightThrough(t *testing.T) {
	recs := allocRecords()
	for _, ref := range snapshotSchemes {
		t.Run(ref.Name, func(t *testing.T) {
			for _, warm := range []int{0, len(recs) / 3, len(recs)} {
				straight := newCheckpointSystem(t, ref)
				want := straight.Run(workload.Replay(recs), warm)

				split := newCheckpointSystem(t, ref)
				split.RunWarmup(workload.Replay(recs[:warm]))
				got := split.RunMeasured(workload.Replay(recs[warm:]))
				if got != want {
					t.Errorf("warm=%d: split run diverged:\n got %+v\nwant %+v", warm, got, want)
				}
			}
		})
	}
}

// TestCheckpointForkMatchesStraightThrough is the tentpole equivalence
// property: a fresh system restored from a post-warmup checkpoint must
// produce the byte-identical Result of a straight-through run — and the
// checkpoint must be reusable, so any number of systems can fork from it.
func TestCheckpointForkMatchesStraightThrough(t *testing.T) {
	recs := allocRecords()
	warm := len(recs) / 3
	for _, ref := range snapshotSchemes {
		t.Run(ref.Name, func(t *testing.T) {
			straight := newCheckpointSystem(t, ref)
			want := straight.Run(workload.Replay(recs), warm)

			warmer := newCheckpointSystem(t, ref)
			warmer.RunWarmup(workload.Replay(recs[:warm]))
			cp, ok := warmer.Checkpoint()
			if !ok {
				t.Fatalf("scheme %s does not checkpoint", ref.Name)
			}
			// The system that took the checkpoint continues unharmed...
			if got := warmer.RunMeasured(workload.Replay(recs[warm:])); got != want {
				t.Errorf("checkpointed system diverged:\n got %+v\nwant %+v", got, want)
			}
			// ...and fresh systems fork from it, repeatedly: the first
			// forked run must not be able to corrupt the checkpoint for the
			// second.
			for i := 0; i < 2; i++ {
				forked := newCheckpointSystem(t, ref)
				if err := forked.Restore(cp); err != nil {
					t.Fatalf("fork %d: %v", i, err)
				}
				if got := forked.RunMeasured(workload.Replay(recs[warm:])); got != want {
					t.Errorf("fork %d diverged:\n got %+v\nwant %+v", i, got, want)
				}
			}
		})
	}
}

// TestCheckpointIsIsolatedFromSource: running the source system past the
// checkpoint must not leak state into snapshots already taken (deep copy,
// not aliasing).
func TestCheckpointIsIsolatedFromSource(t *testing.T) {
	recs := allocRecords()
	warm := len(recs) / 3
	src := newCheckpointSystem(t, SchemeOTPLRU)
	src.RunWarmup(workload.Replay(recs[:warm]))
	cp, ok := src.Checkpoint()
	if !ok {
		t.Fatal("no checkpoint")
	}
	want := src.RunMeasured(workload.Replay(recs[warm:]))

	// src has now mutated far past the boundary; a restore must still see
	// the boundary state.
	forked := newCheckpointSystem(t, SchemeOTPLRU)
	if err := forked.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if got := forked.RunMeasured(workload.Replay(recs[warm:])); got != want {
		t.Errorf("checkpoint was mutated by the source system:\n got %+v\nwant %+v", got, want)
	}
}

// TestSameStateSeesOneStep: the comparison the replay tests rely on
// equates two checkpoints of one state and tells apart two checkpoints one
// record apart.
func TestSameStateSeesOneStep(t *testing.T) {
	recs := allocRecords()
	warm := len(recs) / 3
	sys := newCheckpointSystem(t, SchemeOTPLRU)
	sys.RunWarmup(workload.Replay(recs[:warm]))
	before := checkpointOf(t, sys)
	if !reflect.DeepEqual(before, checkpointOf(t, sys)) {
		t.Fatal("two checkpoints of one state compare unequal")
	}
	sys.Step(recs[warm])
	if reflect.DeepEqual(before, checkpointOf(t, sys)) {
		t.Error("checkpoints one record apart compare equal")
	}
}

// TestRestoreRejectsMismatchedConfig: a checkpoint must only ever land in a
// machine built from the same configuration, and a failed restore must leave
// the target untouched (callers fall through to a scratch warmup).
func TestRestoreRejectsMismatchedConfig(t *testing.T) {
	recs := allocRecords()
	warm := len(recs) / 4
	src := newCheckpointSystem(t, SchemeOTPLRU)
	src.RunWarmup(workload.Replay(recs[:warm]))
	cp, _ := src.Checkpoint()

	// Different scheme.
	other := newCheckpointSystem(t, SchemeXOM)
	if err := other.Restore(cp); err == nil {
		t.Error("restore into a different scheme accepted")
	}
	// Same scheme, different parameters.
	pid := newCheckpointSystem(t, parseRef(t, "snc-lru:switch=pid"))
	if err := pid.Restore(cp); err == nil {
		t.Error("restore into different scheme parameters accepted")
	}
	// Different geometry, same scheme.
	cfg := DefaultConfig()
	cfg.Scheme = SchemeOTPLRU
	cfg.L2.SizeBytes = 512 << 10
	bigger, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := bigger.Restore(cp); err == nil {
		t.Error("restore into a different L2 geometry accepted")
	}
	// The rejected target is unmutated: it still runs from scratch and
	// matches a never-touched system.
	ref := newCheckpointSystem(t, SchemeXOM)
	want := ref.Run(workload.Replay(recs), warm)
	otherRes := other.Run(workload.Replay(recs), warm)
	if otherRes != want {
		t.Errorf("failed restore mutated the target:\n got %+v\nwant %+v", otherRes, want)
	}
}

// TestRestoredStepAllocsZero extends the steady-state zero-alloc guarantee
// to the forked measurement phase: restoring a checkpoint reuses the
// system's allocations, so a settled system steps alloc-free after restore.
func TestRestoredStepAllocsZero(t *testing.T) {
	recs := allocRecords()
	for _, ref := range []SchemeRef{SchemeOTPLRU, SchemeOTPMAC} {
		t.Run(ref.Name, func(t *testing.T) {
			sys := newCheckpointSystem(t, ref)
			// Settle every structure's high-water mark, then checkpoint.
			for pass := 0; pass < 2; pass++ {
				for _, rec := range recs {
					sys.Step(rec)
				}
			}
			sys.cpu.Drain()
			cp, ok := sys.Checkpoint()
			if !ok {
				t.Fatal("no checkpoint")
			}
			if err := sys.Restore(cp); err != nil {
				t.Fatal(err)
			}
			i := 0
			avg := testing.AllocsPerRun(2000, func() {
				sys.Step(recs[i%len(recs)])
				i++
			})
			if avg != 0 {
				t.Errorf("scheme %s: %.2f allocs per post-restore Step, want 0", ref.Name, avg)
			}
		})
	}
}
