package workload

import (
	"math"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

func TestAllProfilesValidate(t *testing.T) {
	profs := Profiles()
	if len(profs) != 11 {
		t.Fatalf("got %d profiles, want 11 (the paper's benchmark set)", len(profs))
	}
	for _, p := range profs {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestBenchmarkNamesMatchProfiles(t *testing.T) {
	for _, name := range BenchmarkNames {
		p, ok := ByName(name)
		if !ok {
			t.Errorf("no profile for %q", name)
			continue
		}
		if p.Name != name {
			t.Errorf("ByName(%q) returned %q", name, p.Name)
		}
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName should fail for unknown names")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	region := Region{Base: 0, Size: 1024, Pattern: RandomPattern, Weight: 1}
	bad := []Profile{
		{},          // no name
		{Name: "x"}, // no phases
		{Name: "x", Phases: []Phase{{Refs: 0, Regions: []Region{region}}}},
		{Name: "x", Phases: []Phase{{Refs: 1}}}, // no regions
		{Name: "x", Phases: []Phase{{Refs: 1, Regions: []Region{{Size: 0, Weight: 1}}}}},
		{Name: "x", Phases: []Phase{{Refs: 1, Regions: []Region{{Size: 8, Weight: -1}}}}},
		{Name: "x", Phases: []Phase{{Refs: 1, Regions: []Region{{Size: 8, Weight: 0}}}}},
		{Name: "x", IFetchFrac: 0.1, Phases: []Phase{{Refs: 1, Regions: []Region{region}}}}, // no code size
		{Name: "x", Phases: []Phase{ // warmup after measured
			{Refs: 1, Regions: []Region{region}},
			{Refs: 1, Regions: []Region{region}, Warmup: true},
		}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad[%d] validated", i)
		}
	}
}

func TestStreamDeterministic(t *testing.T) {
	p, _ := ByName("gzip")
	s1, err := NewStream(p, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := NewStream(p, 0.05)
	r1 := Collect(s1)
	r2 := Collect(s2)
	if len(r1) == 0 || len(r1) != len(r2) {
		t.Fatalf("lengths %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestStreamScale(t *testing.T) {
	p, _ := ByName("vpr")
	small := Collect(mustStream(t, p, 0.1))
	large := Collect(mustStream(t, p, 0.2))
	// Warmup is fixed; measured refs double.
	w := p.WarmupRefs()
	smallMeasured := len(small) - w
	largeMeasured := len(large) - w
	if largeMeasured < smallMeasured*3/2 {
		t.Errorf("scale did not grow measured refs: %d vs %d", smallMeasured, largeMeasured)
	}
	if _, err := NewStream(p, 0); err == nil {
		t.Error("zero scale accepted")
	}
}

// TestUnusableScaleRejected: a scale that is not positive and finite, or
// at which the trace would be longer than maxTraceRecords (1e12 fits an
// int but no machine's memory; 1e300 overflows int), is an error from both
// NewStream and Materialize, never a trace with no measured records or a
// panic.
func TestUnusableScaleRejected(t *testing.T) {
	p, _ := ByName("mcf")
	for _, scale := range []float64{math.NaN(), math.Inf(1), 1e300, 1e12, math.Inf(-1), 0, -1} {
		if _, err := NewStream(p, scale); err == nil {
			t.Errorf("NewStream accepted scale %g", scale)
		}
		if recs, err := Materialize(p, scale); err == nil {
			t.Errorf("Materialize accepted scale %g (%d records)", scale, len(recs))
		}
	}
}

func mustStream(t *testing.T, p Profile, scale float64) Stream {
	t.Helper()
	s, err := NewStream(p, scale)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWarmupRefsCountsOnlyWarmupPhases(t *testing.T) {
	p := Profile{
		Name: "t",
		Phases: []Phase{
			{Refs: 100, Warmup: true, Regions: []Region{{Size: 1024, Weight: 1}}},
			{Refs: 50, Regions: []Region{{Size: 1024, Weight: 1}}},
		},
	}
	if got := p.WarmupRefs(); got != 100 {
		t.Errorf("WarmupRefs = %d, want 100", got)
	}
}

func TestRecordsLandInDeclaredRegions(t *testing.T) {
	for _, p := range Profiles() {
		// Collect region+code bounds.
		type bound struct{ lo, hi uint64 }
		var bounds []bound
		for _, ph := range p.Phases {
			for _, r := range ph.Regions {
				bounds = append(bounds, bound{r.Base, r.Base + r.Size})
			}
		}
		if p.CodeSize > 0 {
			bounds = append(bounds, bound{p.CodeBase, p.CodeBase + p.CodeSize})
		}
		s := mustStream(t, p, 0.02)
		n := 0
		for {
			rec, ok := s.Next()
			if !ok {
				break
			}
			n++
			found := false
			for _, b := range bounds {
				if rec.Addr >= b.lo && rec.Addr < b.hi {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s: record addr %#x outside all regions", p.Name, rec.Addr)
			}
		}
		if n == 0 {
			t.Fatalf("%s: empty stream", p.Name)
		}
	}
}

func TestPointerChaseRecordsDependent(t *testing.T) {
	p := Profile{
		Name: "chase",
		Seed: 1,
		Phases: []Phase{{
			Refs: 1000,
			Regions: []Region{
				{Base: 0, Size: 1 << 20, Pattern: PointerChasePattern, Weight: 1},
			},
		}},
	}
	s := mustStream(t, p, 1)
	deps, loads := 0, 0
	for {
		rec, ok := s.Next()
		if !ok {
			break
		}
		if rec.Kind == Load {
			loads++
			if rec.Depends {
				deps++
			}
		}
	}
	if loads == 0 || deps != loads {
		t.Errorf("pointer chase: %d/%d loads dependent", deps, loads)
	}
}

func TestSequentialPatternStrides(t *testing.T) {
	p := Profile{
		Name: "seq",
		Seed: 2,
		Phases: []Phase{{
			Refs: 10,
			Regions: []Region{
				{Base: 0x1000, Size: 4096, Pattern: SequentialPattern, Stride: 128, Weight: 1},
			},
		}},
	}
	s := mustStream(t, p, 1)
	want := uint64(0x1000)
	for {
		rec, ok := s.Next()
		if !ok {
			break
		}
		if rec.Addr != want {
			t.Fatalf("addr %#x, want %#x", rec.Addr, want)
		}
		want += 128
	}
}

func TestStoreFractionRoughlyHonored(t *testing.T) {
	p := Profile{
		Name: "st",
		Seed: 3,
		Phases: []Phase{{
			Refs: 20000,
			Regions: []Region{
				{Base: 0, Size: 1 << 20, Pattern: RandomPattern, Weight: 1, StoreFrac: 0.5},
			},
		}},
	}
	s := mustStream(t, p, 1)
	stores, total := 0, 0
	for {
		rec, ok := s.Next()
		if !ok {
			break
		}
		total++
		if rec.Kind == Store {
			stores++
		}
	}
	frac := float64(stores) / float64(total)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("store fraction %.3f, want ~0.5", frac)
	}
}

func TestIFetchEmission(t *testing.T) {
	p, _ := ByName("gcc")
	s := mustStream(t, p, 0.2)
	ifetches := 0
	for {
		rec, ok := s.Next()
		if !ok {
			break
		}
		if rec.Kind == IFetch {
			ifetches++
			if rec.Addr < p.CodeBase || rec.Addr >= p.CodeBase+p.CodeSize {
				t.Fatalf("ifetch outside code region: %#x", rec.Addr)
			}
		}
	}
	if ifetches == 0 {
		t.Error("gcc should emit instruction fetches")
	}
}

// TestByNameReturnsIndependentProfiles asserts the profile constructors
// hand out fully independent values: the experiment layer's worker pool
// calls ByName concurrently, and a shared Phase/Region slice would let one
// worker's stream corrupt another's trace.
func TestByNameReturnsIndependentProfiles(t *testing.T) {
	a, _ := ByName("mcf")
	b, _ := ByName("mcf")
	if &a.Phases[0] == &b.Phases[0] {
		t.Fatal("ByName returned aliased Phases slices")
	}
	a.Phases[0].Refs = -1
	a.Phases[0].Regions[0].Weight = -1
	if b.Phases[0].Refs == -1 || b.Phases[0].Regions[0].Weight == -1 {
		t.Error("mutating one profile leaked into a second ByName result")
	}
	if err := b.Validate(); err != nil {
		t.Errorf("second profile invalid after mutating the first: %v", err)
	}
}

// TestConcurrentStreamsDeterministic generates the same profile's trace
// from several goroutines at once and checks every stream sees the
// identical deterministic record sequence (run under -race this also
// proves NewStream/Next share no mutable state across streams).
func TestConcurrentStreamsDeterministic(t *testing.T) {
	prof, _ := ByName("mcf")
	want := Collect(mustStream(t, prof, 0.02))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, _ := ByName("mcf")
			s, err := NewStream(p, 0.02)
			if err != nil {
				t.Error(err)
				return
			}
			got := Collect(s)
			if len(got) != len(want) {
				t.Errorf("trace length %d, want %d", len(got), len(want))
				return
			}
			for j := range got {
				if got[j] != want[j] {
					t.Errorf("record %d = %+v, want %+v", j, got[j], want[j])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRecordSize pins Record's packed layout: traces hold millions of
// records, so a field reorder that reintroduces padding is a memory
// regression across every materialized trace.
func TestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 16 {
		t.Errorf("unsafe.Sizeof(Record{}) = %d, want 16", got)
	}
}

// TestWarmupPrefixScaleIndependent pins what the experiments package's
// checkpoint and warmup-outcome keys rely on by leaving out the scale: the
// warmup prefix of a materialized trace is the same records at every
// scale, because warmup phases never scale and precede every measured
// phase. A replay's guard checks only the record count, not the records.
func TestWarmupPrefixScaleIndependent(t *testing.T) {
	for _, name := range BenchmarkNames {
		p, ok := ByName(name)
		if !ok {
			t.Fatalf("no profile %s", name)
		}
		var want []Record
		for _, scale := range []float64{0.02, 0.05, 1.0} {
			recs, err := Materialize(p, scale)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) < p.WarmupRefs() {
				t.Fatalf("%s at scale %g: %d records, shorter than the %d-record warmup", name, scale, len(recs), p.WarmupRefs())
			}
			got := recs[:p.WarmupRefs()]
			if want == nil {
				want = got
			} else if !slices.Equal(got, want) {
				t.Errorf("%s: warmup prefix at scale %g differs from scale 0.02's", name, scale)
			}
		}
	}
}
