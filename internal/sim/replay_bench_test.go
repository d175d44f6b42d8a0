package sim

import (
	"testing"

	"secureproc/internal/workload"
)

// benchReplayScale is the mcf scale BenchmarkMeasuredReplay replays: its
// measured phase is 200,000 records.
const benchReplayScale = 1.0

// BenchmarkMeasuredReplay times the forked measured phase the way a sweep
// runs it: mcf's measured outcomes are recorded once under baseline, and
// each iteration builds a new System, restores a post-warmup checkpoint
// into it (both untimed) and replays them under one scheme. It reports ns
// per replayed record; allocs/op is that of the replay alone, so it counts
// the sequence-number chunks a fork allocates for regions its checkpoint
// holds none for.
func BenchmarkMeasuredReplay(b *testing.B) {
	prof, ok := workload.ByName("mcf")
	if !ok {
		b.Fatal("no profile mcf")
	}
	recs, err := workload.Materialize(prof, benchReplayScale)
	if err != nil {
		b.Fatal(err)
	}
	warm := min(prof.WarmupRefs(), len(recs))
	rec := newCheckpointSystem(b, SchemeBaseline)
	warmOuts := rec.RunWarmupRecord(recs[:warm])
	_, outs := rec.RunMeasuredRecord(recs[warm:])
	measured := recs[warm:]

	for _, ref := range snapshotSchemes {
		b.Run(ref.Name, func(b *testing.B) {
			sys := newCheckpointSystem(b, ref)
			if err := sys.RunWarmupReplay(recs[:warm], warmOuts); err != nil {
				b.Fatal(err)
			}
			cp := checkpointOf(b, sys)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				b.StopTimer()
				fork := newCheckpointSystem(b, ref)
				if err := fork.Restore(cp); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := fork.RunMeasuredReplay(measured, outs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(measured)), "ns/rec")
		})
	}
}

// BenchmarkWarmupReplay times the warmup a never-checkpointed spec runs:
// mcf's warmup outcomes are recorded once under baseline, and each
// iteration builds a new System (untimed) and replays them into it under
// one scheme. It reports ns per replayed record; allocs/op is that of the
// replay alone.
func BenchmarkWarmupReplay(b *testing.B) {
	prof, ok := workload.ByName("mcf")
	if !ok {
		b.Fatal("no profile mcf")
	}
	recs, err := workload.Materialize(prof, benchReplayScale)
	if err != nil {
		b.Fatal(err)
	}
	warm := recs[:min(prof.WarmupRefs(), len(recs))]
	outs := newCheckpointSystem(b, SchemeBaseline).RunWarmupRecord(warm)

	for _, ref := range snapshotSchemes {
		b.Run(ref.Name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				b.StopTimer()
				sys := newCheckpointSystem(b, ref)
				b.StartTimer()
				if err := sys.RunWarmupReplay(warm, outs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(warm)), "ns/rec")
		})
	}
}
