package sim

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"secureproc/internal/cache"
	"secureproc/internal/core"
	"secureproc/internal/workload"
)

// tinyConfig is a machine with caches small enough that a short random
// stream produces every outcome kind: 2-set 2-way L1s with 64B lines and a
// 4-set 2-way L2 with 128B lines.
func tinyConfig(ref SchemeRef) Config {
	cfg := DefaultConfig()
	cfg.Scheme = ref
	cfg.L1I = cache.Config{Name: "L1I", SizeBytes: 256, LineBytes: 64, Ways: 2}
	cfg.L1D = cache.Config{Name: "L1D", SizeBytes: 256, LineBytes: 64, Ways: 2}
	cfg.L2 = cache.Config{Name: "L2", SizeBytes: 1 << 10, LineBytes: 128, Ways: 2}
	return cfg
}

func mustNew(t *testing.T, cfg Config) *System {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// randomRecords turns raw words into a stream over a 4KB footprint that
// instruction fetches share with data, so instruction fills can evict dirty
// data lines from L2.
func randomRecords(raw []uint32) []workload.Record {
	recs := make([]workload.Record, len(raw))
	for i, v := range raw {
		recs[i] = workload.Record{
			Addr:    uint64(v>>8&0xfff) &^ 7,
			Gap:     v >> 4 & 3,
			Kind:    workload.Kind(v % 3),
			Depends: v>>6&1 == 1,
		}
	}
	return recs
}

// outcomeKinds lists every (instruction fetch?, outcome bits, depends?)
// triple a record can produce.
var outcomeKinds = func() map[[3]uint8]bool {
	kinds := map[[3]uint8]bool{}
	for _, o := range []uint8{oL1Hit, oL2Hit, 0, oVictim} {
		for dep := range uint8(2) {
			kinds[[3]uint8{1, o, dep}] = false
			kinds[[3]uint8{0, o, dep}] = false
			if o != oL1Hit {
				kinds[[3]uint8{0, oWBFill | o, dep}] = false
				kinds[[3]uint8{0, oWBFill | oWBVictim | o, dep}] = false
			}
		}
	}
	return kinds
}()

// refApply is the reference for retire: the core and scheme calls of one
// record, every outcome in one switch, as a direct run made them before
// the hit arms moved into retire's loop. It returns the words of la it
// consumed.
func refApply(s *System, rec workload.Record, o uint8, la []uint64) int {
	n := uint64(rec.Gap) + 1
	if o&(oVictim|oWBFill) != 0 {
		s.cpu.Compute(uint64(rec.Gap))
		n = 1
	}
	if rec.Kind == workload.IFetch {
		switch {
		case o&oL1Hit != 0:
			s.cpu.Compute(n)
			return 0
		case o&oL2Hit != 0:
			s.cpu.LoadHitL2(n, false)
			return 0
		}
		w := s.writeback(o, la)
		s.cpu.Compute(n)
		s.cpu.WaitUntil(s.scheme.ReadLine(s.cpu.Cycles(), core.Access{Line: s.l2.LineAddr(rec.Addr), Instr: true}))
		return w
	}
	write := rec.Kind == workload.Store
	if o&oL1Hit != 0 {
		if write {
			s.cpu.Compute(n)
		} else {
			s.cpu.LoadHitL1(n, rec.Depends)
		}
		return 0
	}
	w := 0
	if o&oWBFill != 0 {
		if o&oWBVictim != 0 {
			s.writebackLine(la[0])
			w = 1
		}
		issue := s.cpu.IssueMiss(1, false)
		s.cpu.HoldMSHR(s.scheme.ReadLine(issue, core.Access{Line: la[w]}), false)
		w++
	}
	if o&oL2Hit != 0 {
		if write {
			s.cpu.Compute(n)
		} else {
			s.cpu.LoadHitL2(n, rec.Depends)
		}
		return w
	}
	w += s.writeback(o, la[w:])
	issue := s.cpu.IssueMiss(n, rec.Depends && !write)
	s.cpu.HoldMSHR(s.scheme.ReadLine(issue, core.Access{Line: s.l2.LineAddr(rec.Addr)}), !write)
	return w
}

// refRun runs warm and then measured through lookup and refApply, one
// record at a time, with RunWarmup's drain and RunMeasured's measurement
// boundary, and returns the measured Result.
func refRun(s *System, warm, measured []workload.Record) Result {
	for _, rec := range warm {
		refApply(s, rec, s.lookup(rec), s.la[:])
	}
	s.cpu.Drain()
	s.BeginMeasurement()
	for _, rec := range measured {
		refApply(s, rec, s.lookup(rec), s.la[:])
	}
	s.cpu.Drain()
	return s.result()
}

// TestReplayPropertyAcrossSchemes: over random record streams on a tiny
// machine, outcomes recorded under one scheme and replayed under another
// give the Result and the final state of a direct run under the second
// scheme, and both equal a reference run through refApply, which keeps
// every arm in one place and so checks retire's hit arms independently.
// Every outcome kind must occur over the run, with and without a
// dependence, so the rare ones (an instruction fill evicting a dirty line,
// a write-allocated L1 victim evicting another) are exercised, not just
// reachable.
func TestReplayPropertyAcrossSchemes(t *testing.T) {
	schemes := snapshotSchemes
	seen := map[[3]uint8]bool{}
	prop := func(raw []uint32, pick uint8) bool {
		if len(raw) < 2 {
			return true
		}
		recs := randomRecords(raw)
		warm, measured := recs[:len(recs)/2], recs[len(recs)/2:]
		from := schemes[int(pick)%len(schemes)]
		to := schemes[int(pick/8)%len(schemes)]

		recorder := mustNew(t, tinyConfig(from))
		recorder.RunWarmup(workload.Replay(warm))
		_, outs := recorder.RunMeasuredRecord(measured)
		for i, r := range measured {
			seen[[3]uint8{boolByte(r.Kind == workload.IFetch), outs.ops[i], boolByte(r.Depends)}] = true
		}

		ref := mustNew(t, tinyConfig(to))
		want := refRun(ref, warm, measured)

		direct := mustNew(t, tinyConfig(to))
		direct.RunWarmup(workload.Replay(warm))
		if got := direct.RunMeasured(workload.Replay(measured)); got != want {
			t.Logf("%s: direct %+v, reference %+v", to.Name, got, want)
			return false
		}

		replay := mustNew(t, tinyConfig(to))
		replay.RunWarmup(workload.Replay(warm))
		got, err := replay.RunMeasuredReplay(measured, outs)
		if err != nil {
			t.Logf("%s -> %s: %v", from.Name, to.Name, err)
			return false
		}
		if got != want {
			t.Logf("%s -> %s: replay %+v, reference %+v", from.Name, to.Name, got, want)
			return false
		}
		cp := checkpointOf(t, ref)
		return reflect.DeepEqual(checkpointOf(t, direct), cp) && reflect.DeepEqual(checkpointOf(t, replay), cp)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
	for k := range outcomeKinds {
		if !seen[k] {
			t.Errorf("outcome kind (ifetch=%d, bits=%05b, depends=%d) never occurred", k[0], k[1], k[2])
		}
	}
	for k := range seen {
		if _, ok := outcomeKinds[k]; !ok {
			t.Errorf("unexpected outcome kind (ifetch=%d, bits=%05b, depends=%d)", k[0], k[1], k[2])
		}
	}
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// TestReplayRefusals: a replay refuses, with an error and without changing
// the system, when the recording does not fit it — another L2 geometry,
// another record count, or caches that are not at the recording's start
// (a fresh system, or one warmed on another benchmark).
func TestReplayRefusals(t *testing.T) {
	trace := func(bench string) ([]workload.Record, int) {
		prof, _ := workload.ByName(bench)
		recs, err := workload.Materialize(prof, invariantScale)
		if err != nil {
			t.Fatal(err)
		}
		return recs, min(prof.WarmupRefs(), len(recs))
	}
	recs, warm := trace("mcf")
	other, otherWarm := trace("gcc")

	rec := newInvariantSystem(t, SchemeBaseline, 256, 4)
	rec.RunWarmup(workload.Replay(recs[:warm]))
	_, outs := rec.RunMeasuredRecord(recs[warm:])

	warmed := func(l2KB, l2Ways int, prefix []workload.Record) *System {
		sys := newInvariantSystem(t, SchemeOTPLRU, l2KB, l2Ways)
		sys.RunWarmup(workload.Replay(prefix))
		return sys
	}
	for _, c := range []struct {
		name string
		sys  *System
		recs []workload.Record
		want string
	}{
		{"l2 geometry", warmed(384, 6, recs[:warm]), recs[warm:], "cache configs"},
		{"record count", warmed(256, 4, recs[:warm]), recs[warm+1:], "records"},
		{"fresh system", newInvariantSystem(t, SchemeOTPLRU, 256, 4), recs[warm:], "state differs"},
		{"other benchmark", warmed(256, 4, other[:otherWarm]), recs[warm:], "state differs"},
	} {
		before := checkpointOf(t, c.sys)
		_, err := c.sys.RunMeasuredReplay(c.recs, outs)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want a refusal mentioning %q", c.name, err, c.want)
		}
		if !reflect.DeepEqual(checkpointOf(t, c.sys), before) {
			t.Errorf("%s: refused replay changed the system", c.name)
		}
	}
}

// TestRestoreReplayAllocsZero extends the zero-alloc guarantee to the
// replayed measured phase: restoring a checkpoint and replaying shared
// outcomes on a settled system allocates nothing.
func TestRestoreReplayAllocsZero(t *testing.T) {
	recs := allocRecords()
	warm := len(recs) / 3
	for _, ref := range []SchemeRef{SchemeBaseline, SchemeOTPLRU, SchemeOTPMAC} {
		t.Run(ref.Name, func(t *testing.T) {
			sys := newCheckpointSystem(t, ref)
			sys.RunWarmup(workload.Replay(recs[:warm]))
			cp := checkpointOf(t, sys)
			_, outs := sys.RunMeasuredRecord(recs[warm:])
			// Settle every structure's high-water mark.
			for range 2 {
				if err := sys.Restore(cp); err != nil {
					t.Fatal(err)
				}
				if _, err := sys.RunMeasuredReplay(recs[warm:], outs); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(5, func() {
				if err := sys.Restore(cp); err != nil {
					t.Fatal(err)
				}
				if _, err := sys.RunMeasuredReplay(recs[warm:], outs); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("scheme %s: %.2f allocs per restore + replay, want 0", ref.Name, avg)
			}
		})
	}
}

// TestConcurrentReplaysShareOutcomes: published outcomes are only read by a
// replay, so systems under different schemes may replay one recording at
// once (run it under -race) and each gets its direct run's Result.
func TestConcurrentReplaysShareOutcomes(t *testing.T) {
	recs := allocRecords()
	warm := len(recs) / 3
	rec := newCheckpointSystem(t, SchemeBaseline)
	rec.RunWarmup(workload.Replay(recs[:warm]))
	_, outs := rec.RunMeasuredRecord(recs[warm:])

	var wg sync.WaitGroup
	for _, ref := range snapshotSchemes {
		direct := newCheckpointSystem(t, ref)
		direct.RunWarmup(workload.Replay(recs[:warm]))
		want := direct.RunMeasured(workload.Replay(recs[warm:]))
		replay := newCheckpointSystem(t, ref)
		replay.RunWarmup(workload.Replay(recs[:warm]))
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := replay.RunMeasuredReplay(recs[warm:], outs)
			if err != nil || got != want {
				t.Errorf("%s: concurrent replay = %+v (err %v), want %+v", ref.Name, got, err, want)
			}
		}()
	}
	wg.Wait()
}

// TestWarmupReplayRefusals: a warmup replay refuses, with an error and
// without changing the system, when the recording does not fit it — caches
// that are not empty (a warmed or a restored system), another L2 geometry,
// or another record count.
func TestWarmupReplayRefusals(t *testing.T) {
	prof, _ := workload.ByName("mcf")
	recs, err := workload.Materialize(prof, invariantScale)
	if err != nil {
		t.Fatal(err)
	}
	warm := min(prof.WarmupRefs(), len(recs))
	outs := newInvariantSystem(t, SchemeBaseline, 256, 4).RunWarmupRecord(recs[:warm])

	warmed := newInvariantSystem(t, SchemeOTPLRU, 256, 4)
	warmed.RunWarmup(workload.Replay(recs[:warm]))
	restored := newInvariantSystem(t, SchemeOTPLRU, 256, 4)
	if err := restored.Restore(checkpointOf(t, warmed)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		sys  *System
		recs []workload.Record
		want string
	}{
		{"warmed system", warmed, recs[:warm], "state differs"},
		{"restored system", restored, recs[:warm], "state differs"},
		{"l2 geometry", newInvariantSystem(t, SchemeOTPLRU, 384, 6), recs[:warm], "cache configs"},
		{"record count", newInvariantSystem(t, SchemeOTPLRU, 256, 4), recs[:warm-1], "records"},
	} {
		before := checkpointOf(t, c.sys)
		err := c.sys.RunWarmupReplay(c.recs, outs)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want a refusal mentioning %q", c.name, err, c.want)
		}
		if !reflect.DeepEqual(checkpointOf(t, c.sys), before) {
			t.Errorf("%s: refused replay changed the system", c.name)
		}
	}
}

// TestWarmupReplayAllocsZero: replaying a shared warmup recording of
// allocRecords on a freshly built system allocates nothing. That holds at
// allocRecords' footprint, whose 32K data lines fit the default SNC, so no
// sequence number spills to the in-memory table. A longer trace spills,
// and each 64 KB region it first spills to allocates a sequence-table
// chunk: BenchmarkWarmupReplay (mcf, scale 1) allocates 173 per replay
// under snc-lru and otp-mac. Building the system stays outside the
// measured closure. otp-precompute is left out: its pad retention table
// grows on first use, under a direct Step as well.
func TestWarmupReplayAllocsZero(t *testing.T) {
	recs := allocRecords()
	const runs = 3
	for _, ref := range []SchemeRef{SchemeBaseline, SchemeXOM, SchemeOTPLRU, SchemeOTPNoRepl, SchemeOTPMAC} {
		t.Run(ref.Name, func(t *testing.T) {
			outs := newCheckpointSystem(t, SchemeBaseline).RunWarmupRecord(recs)
			fresh := make([]*System, runs+1) // AllocsPerRun adds one untimed call
			for i := range fresh {
				fresh[i] = newCheckpointSystem(t, ref)
			}
			i := 0
			avg := testing.AllocsPerRun(runs, func() {
				if err := fresh[i].RunWarmupReplay(recs, outs); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if avg != 0 {
				t.Errorf("scheme %s: %.2f allocs per warmup replay on a fresh system, want 0", ref.Name, avg)
			}
		})
	}
}

// TestReplayRefusesNoRecording: RunWarmupReplay is exported, so a nil
// recording must be refused, not dereferenced.
func TestReplayRefusesNoRecording(t *testing.T) {
	recs := []workload.Record{{Addr: 0x200, Kind: workload.Load}, {Addr: 0x400, Kind: workload.Load}}
	if err := mustNew(t, tinyConfig(SchemeBaseline)).RunWarmupReplay(recs, nil); err == nil {
		t.Error("RunWarmupReplay accepted nil outcomes")
	}
}
