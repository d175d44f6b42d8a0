package perf

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"
)

// perfOut, when set, makes TestPerfSnapshot write the collected snapshot
// to the given path:
//
//	go test ./internal/perf -run TestPerfSnapshot -perf.out=BENCH_PR4.json
var perfOut = flag.String("perf.out", "", "write the perf snapshot to this file")

// perfBase and perfCur, when both set, make TestPerfCompare gate the
// second side against the first. Each is one snapshot file or a
// comma-separated list of them, merged by Best:
//
//	go test ./internal/perf -run TestPerfCompare -perf.base b1.json,b2.json -perf.cur p1.json,p2.json
var (
	perfBase = flag.String("perf.base", "", "baseline snapshot file(s), comma-separated, for TestPerfCompare")
	perfCur  = flag.String("perf.cur", "", "snapshot file(s), comma-separated, TestPerfCompare gates against -perf.base")
)

// nsTolerance is the ns/op growth TestPerfCompare allows (±10%);
// allocs/op may not grow at all.
const nsTolerance = 0.10

// TestPerfSnapshot runs the full harness once. It never fails on speed —
// regression gating is CI's Compare step — but it validates that every
// benchmark produced sane measurements, and optionally persists them.
func TestPerfSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("perf snapshot is not a -short test")
	}
	s := Collect()
	if len(s) == 0 {
		t.Fatal("empty snapshot")
	}
	for _, name := range s.Names() {
		m := s[name]
		if m.NsPerOp <= 0 {
			t.Errorf("%s: ns/op = %v, want > 0", name, m.NsPerOp)
		}
		if m.AllocsPerOp < 0 {
			t.Errorf("%s: allocs/op = %v, want >= 0", name, m.AllocsPerOp)
		}
	}
	if m := s["figure-sweep"]; m.SimsPerSec <= 0 {
		t.Errorf("figure-sweep: sims/sec = %v, want > 0", m.SimsPerSec)
	}
	t.Logf("\n%s", s)
	if *perfOut != "" {
		if err := s.WriteFile(*perfOut); err != nil {
			t.Fatal(err)
		}
		t.Logf("snapshot written to %s", *perfOut)
	}
}

// TestPerfCompare is CI's perf gate: it fails on every benchmark whose
// best ns/op over the -perf.cur snapshots grew beyond nsTolerance, or whose
// fewest allocs/op grew at all, against the best of the -perf.base
// snapshots. Without both flags it is skipped.
func TestPerfCompare(t *testing.T) {
	if *perfBase == "" || *perfCur == "" {
		t.Skip("needs -perf.base and -perf.cur")
	}
	base, cur := loadBest(t, *perfBase), loadBest(t, *perfCur)
	for _, r := range Compare(base, cur, nsTolerance) {
		t.Error("regression:", r)
	}
	t.Logf("%d benchmarks compared, ns/op tolerance %.0f%%, allocs/op zero tolerance", len(cur), nsTolerance*100)
}

// Best merges snapshots of one revision, taken in turn with another
// revision's on one host: per benchmark it keeps the fastest ns/op, with
// that run's sims/sec and instrs/sec, and the fewest allocs/op. The
// fastest of several interleaved runs is the one least disturbed by the
// host, so two revisions' bests differ by their code rather than by the
// drift between two single snapshots.
func Best(snaps ...Snapshot) Snapshot {
	out := make(Snapshot)
	for _, s := range snaps {
		for name, m := range s {
			b, ok := out[name]
			if !ok {
				out[name] = m
				continue
			}
			allocs := min(b.AllocsPerOp, m.AllocsPerOp)
			if m.NsPerOp < b.NsPerOp {
				b = m
			}
			b.AllocsPerOp = allocs
			out[name] = b
		}
	}
	return out
}

// loadBest loads a comma-separated list of snapshot files and merges them
// with Best.
func loadBest(t *testing.T, list string) Snapshot {
	t.Helper()
	var snaps []Snapshot
	for _, path := range strings.Split(list, ",") {
		s, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, s)
	}
	return Best(snaps...)
}

// TestBestKeepsFastestAndFewest: Best takes each benchmark's fastest ns/op
// with that run's rates, and its fewest allocs/op, which may come from
// another run; a benchmark only some snapshots carry is kept.
func TestBestKeepsFastestAndFewest(t *testing.T) {
	got := Best(
		Snapshot{"a": {NsPerOp: 120, AllocsPerOp: 5, SimsPerSec: 1}, "b": {NsPerOp: 7, AllocsPerOp: 1}},
		Snapshot{"a": {NsPerOp: 100, AllocsPerOp: 6, SimsPerSec: 2}},
		Snapshot{"a": {NsPerOp: 110, AllocsPerOp: 4, SimsPerSec: 3}},
	)
	want := Snapshot{"a": {NsPerOp: 100, AllocsPerOp: 4, SimsPerSec: 2}, "b": {NsPerOp: 7, AllocsPerOp: 1}}
	if len(got) != len(want) || got["a"] != want["a"] || got["b"] != want["b"] {
		t.Errorf("Best = %+v, want %+v", got, want)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := Snapshot{
		"a": {NsPerOp: 100, AllocsPerOp: 2, SimsPerSec: 10},
		"b": {NsPerOp: 200, AllocsPerOp: 0, SimsPerSec: 5, InstrsPerSec: 1e6},
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(s) || got["a"] != s["a"] || got["b"] != s["b"] {
		t.Errorf("round trip mismatch: %+v != %+v", got, s)
	}
}

func TestCompareGates(t *testing.T) {
	base := Snapshot{
		"sweep": {NsPerOp: 1000, AllocsPerOp: 50},
		"probe": {NsPerOp: 100, AllocsPerOp: 0},
	}
	// Within tolerance, fewer allocs: clean.
	cur := Snapshot{
		"sweep": {NsPerOp: 1050, AllocsPerOp: 40},
		"probe": {NsPerOp: 95, AllocsPerOp: 0},
		"new":   {NsPerOp: 9999, AllocsPerOp: 9999}, // no baseline: skipped
	}
	if regs := Compare(base, cur, 0.10); len(regs) != 0 {
		t.Errorf("clean compare flagged: %v", regs)
	}
	// 20% slower: ns/op gate trips.
	cur["sweep"] = Metric{NsPerOp: 1200, AllocsPerOp: 50}
	regs := Compare(base, cur, 0.10)
	if len(regs) != 1 || regs[0].Field != "ns/op" || regs[0].Name != "sweep" {
		t.Fatalf("want one sweep ns/op regression, got %v", regs)
	}
	if regs[0].Pct < 19 || regs[0].Pct > 21 {
		t.Errorf("pct = %v, want ~20", regs[0].Pct)
	}
	// One extra alloc: zero-tolerance gate trips even inside the ns window.
	cur["sweep"] = Metric{NsPerOp: 1000, AllocsPerOp: 51}
	regs = Compare(base, cur, 0.10)
	if len(regs) != 1 || regs[0].Field != "allocs/op" {
		t.Fatalf("want one allocs/op regression, got %v", regs)
	}
	// Alloc growth from a zero baseline still trips.
	cur["sweep"] = Metric{NsPerOp: 1000, AllocsPerOp: 50}
	cur["probe"] = Metric{NsPerOp: 100, AllocsPerOp: 1}
	regs = Compare(base, cur, 0.10)
	if len(regs) != 1 || regs[0].Name != "probe" || regs[0].Field != "allocs/op" {
		t.Fatalf("want probe allocs/op regression, got %v", regs)
	}
}
