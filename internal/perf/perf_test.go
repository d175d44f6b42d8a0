package perf

import (
	"flag"
	"path/filepath"
	"testing"
)

// perfOut, when set, makes TestPerfSnapshot write the collected snapshot
// to the given path:
//
//	go test ./internal/perf -run TestPerfSnapshot -perf.out=BENCH_PR4.json
var perfOut = flag.String("perf.out", "", "write the perf snapshot to this file")

// perfBase and perfCur, when both set, make TestPerfCompare gate the
// second snapshot against the first:
//
//	go test ./internal/perf -run TestPerfCompare -perf.base base.json -perf.cur pr.json
var (
	perfBase = flag.String("perf.base", "", "baseline snapshot for TestPerfCompare")
	perfCur  = flag.String("perf.cur", "", "snapshot TestPerfCompare gates against -perf.base")
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

// TestPerfCompare is CI's perf gate: it fails on every benchmark of
// -perf.cur whose ns/op grew beyond nsTolerance or whose allocs/op grew at
// all against -perf.base. Without both flags it is skipped.
func TestPerfCompare(t *testing.T) {
	if *perfBase == "" || *perfCur == "" {
		t.Skip("needs -perf.base and -perf.cur")
	}
	base, err := Load(*perfBase)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := Load(*perfCur)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range Compare(base, cur, nsTolerance) {
		t.Error("regression:", r)
	}
	t.Logf("%d benchmarks compared, ns/op tolerance %.0f%%, allocs/op zero tolerance", len(cur), nsTolerance*100)
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
