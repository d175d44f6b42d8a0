package snc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallCfg(policy Policy, ways int) Config {
	// 8 entries total.
	return Config{SizeBytes: 16, EntryBytes: 2, Ways: ways, LineBytes: 128, Policy: policy}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Entries() != 32<<10 {
		t.Errorf("entries = %d, want 32K (paper: 64KB / 2B)", cfg.Entries())
	}
	if cfg.CoverageBytes() != 4<<20 {
		t.Errorf("coverage = %d, want 4MB (paper Section 5.1)", cfg.CoverageBytes())
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, EntryBytes: 2, LineBytes: 128},
		{SizeBytes: 15, EntryBytes: 2, LineBytes: 128},          // not multiple
		{SizeBytes: 16, EntryBytes: 2, Ways: 3, LineBytes: 128}, // 8 entries % 3
		{SizeBytes: 12, EntryBytes: 2, Ways: 2, LineBytes: 128}, // sets=3
		{SizeBytes: 16, EntryBytes: 2, Ways: 2, LineBytes: 100}, // line not pow2
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad[%d] should fail validation", i)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "SNC-LRU" || NoReplacement.String() != "SNC-NoRepl" {
		t.Error("policy names do not match the paper's figure labels")
	}
	if Policy(9).String() != "unknown" {
		t.Error("unknown policy name")
	}
}

func TestQueryMissThenInstallHit(t *testing.T) {
	s := New(smallCfg(LRU, 0))
	if _, hit := s.Query(0x1000); hit {
		t.Fatal("empty SNC should miss")
	}
	s.Install(0x1000, 7)
	seq, hit := s.Query(0x1000)
	if !hit || seq != 7 {
		t.Fatalf("after install: seq=%d hit=%v", seq, hit)
	}
	if s.QueryHits != 1 || s.QueryMisses != 1 {
		t.Errorf("stats %d/%d", s.QueryHits, s.QueryMisses)
	}
}

func TestUpdateIncrements(t *testing.T) {
	s := New(smallCfg(LRU, 0))
	s.Install(0x80, 0)
	for want := uint16(1); want <= 3; want++ {
		seq, hit, wrapped := s.Update(0x80)
		if !hit || seq != want || wrapped {
			t.Fatalf("update %d: seq=%d hit=%v wrapped=%v", want, seq, hit, wrapped)
		}
	}
	if s.UpdateHits != 3 {
		t.Errorf("UpdateHits = %d", s.UpdateHits)
	}
	if s.SeqOverflows != 0 {
		t.Errorf("SeqOverflows = %d on non-wrapping updates", s.SeqOverflows)
	}
}

func TestUpdateMissReturnsMiss(t *testing.T) {
	s := New(smallCfg(LRU, 0))
	if _, hit, _ := s.Update(0x4000); hit {
		t.Error("update of absent line should miss")
	}
	if s.UpdateMisses != 1 {
		t.Error("miss not counted")
	}
}

func TestSameLineSharesEntry(t *testing.T) {
	s := New(smallCfg(LRU, 0))
	s.Install(0x1000, 5)
	// Different byte address, same 128B line.
	seq, hit := s.Query(0x107F)
	if !hit || seq != 5 {
		t.Error("addresses within one line must share an entry")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	s := New(smallCfg(LRU, 0)) // 8 entries fully associative
	for i := uint64(0); i < 8; i++ {
		s.Install(i*128, uint16(i))
	}
	s.Query(0) // refresh line 0
	victimVA, victimSeq, evicted := s.Install(9*128, 9)
	if !evicted {
		t.Fatal("expected eviction")
	}
	if victimVA != 1*128 || victimSeq != 1 {
		t.Errorf("victim = (%#x, %d), want (0x80, 1)", victimVA, victimSeq)
	}
}

func TestInstallExistingRefreshes(t *testing.T) {
	s := New(smallCfg(LRU, 0))
	s.Install(0, 1)
	_, _, evicted := s.Install(0, 9)
	if evicted {
		t.Error("reinstall must not evict")
	}
	if seq, _ := s.Query(0); seq != 9 {
		t.Errorf("seq = %d, want 9", seq)
	}
	if s.Occupied() != 1 {
		t.Errorf("occupied = %d, want 1", s.Occupied())
	}
}

func TestTryInstallNoReplacement(t *testing.T) {
	s := New(smallCfg(NoReplacement, 0))
	for i := uint64(0); i < 8; i++ {
		if !s.TryInstall(i*128, 1) {
			t.Fatalf("install %d refused while vacant", i)
		}
	}
	if s.TryInstall(99*128, 1) {
		t.Error("full SNC must refuse new entries under NoReplacement")
	}
	// Existing entries remain updatable.
	if !s.TryInstall(0, 5) {
		t.Error("existing entry update refused")
	}
	if seq, _ := s.Query(0); seq != 5 {
		t.Error("TryInstall did not update existing entry")
	}
}

func TestSetAssociativeConflicts(t *testing.T) {
	// 8 entries, 2 ways => 4 sets. Lines whose lineNum ≡ 0 (mod 4) collide.
	s := New(smallCfg(LRU, 2))
	a := uint64(0 * 128)
	b := uint64(4 * 128)
	c := uint64(8 * 128)
	s.Install(a, 1)
	s.Install(b, 2)
	_, _, evicted := s.Install(c, 3)
	if !evicted {
		t.Error("2-way set with 3 conflicting lines must evict")
	}
	if s.Contains(a) {
		t.Error("LRU entry should have been evicted")
	}
	if !s.Contains(b) || !s.Contains(c) {
		t.Error("recent entries missing")
	}
}

func TestFullyAssociativeNoConflicts(t *testing.T) {
	// Same three "conflicting" lines fit simultaneously when fully
	// associative — the mechanism behind Figure 7's ammp outlier.
	s := New(smallCfg(LRU, 0))
	s.Install(0*128, 1)
	s.Install(4*128, 2)
	_, _, evicted := s.Install(8*128, 3)
	if evicted {
		t.Error("fully associative SNC with vacancies must not evict")
	}
}

func TestFlushAll(t *testing.T) {
	s := New(smallCfg(LRU, 0))
	s.Install(0, 3)
	s.Install(128, 4)
	spilled := s.FlushAll()
	if len(spilled) != 2 {
		t.Fatalf("spilled %d entries, want 2", len(spilled))
	}
	if s.Occupied() != 0 || s.Contains(0) {
		t.Error("entries remain after flush")
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	s := New(smallCfg(LRU, 0))
	s.Install(0, 0)
	s.Query(0)
	s.Query(128)
	if s.QueryHits != 1 || s.QueryMisses != 1 {
		t.Errorf("query hits/misses = %d/%d, want 1/1", s.QueryHits, s.QueryMisses)
	}
	s.ResetStats()
	if s.QueryHits != 0 || s.QueryMisses != 0 {
		t.Error("ResetStats failed")
	}
	if !s.Contains(0) {
		t.Error("ResetStats must keep contents")
	}
}

// TestSeqWrapsAt16Bits documents the 2-byte entry width: 0xFFFF increments
// to 0, and the wrap is reported so the scheme can re-key instead of
// silently reusing the exhausted pad space.
func TestSeqWrapsAt16Bits(t *testing.T) {
	s := New(smallCfg(LRU, 0))
	s.Install(0, 0xFFFF)
	seq, hit, wrapped := s.Update(0)
	if !hit || seq != 0 || !wrapped {
		t.Errorf("wrap: seq=%d hit=%v wrapped=%v, want 0 true true", seq, hit, wrapped)
	}
	if s.SeqOverflows != 1 {
		t.Errorf("SeqOverflows = %d, want 1", s.SeqOverflows)
	}
	// The next update of the re-keyed line is ordinary again.
	if _, _, wrapped := s.Update(0); wrapped {
		t.Error("post-wrap update reported another overflow")
	}
	s.ResetStats()
	if s.SeqOverflows != 0 {
		t.Error("ResetStats must clear SeqOverflows")
	}
}

// TestPIDBitsShrinkCapacity checks Section 4.3 option 2's cost model: tag
// bits ride in the same storage, so a tagged SNC holds fewer sequence
// numbers.
func TestPIDBitsShrinkCapacity(t *testing.T) {
	cfg := DefaultConfig() // 64KB, 2-byte entries -> 32K entries untagged
	if cfg.Entries() != 32<<10 {
		t.Fatalf("untagged entries = %d", cfg.Entries())
	}
	cfg.PIDBits = 8 // 24 bits per entry
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	want := 64 << 10 * 8 / 24
	if cfg.Entries() != want {
		t.Errorf("tagged entries = %d, want %d", cfg.Entries(), want)
	}
	// Set-associative tagged geometry rounds down to power-of-two sets.
	cfg.Ways = 32
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	e := cfg.Entries()
	if e%32 != 0 {
		t.Errorf("tagged 32-way entries %d not a multiple of 32", e)
	}
	if sets := e / 32; sets&(sets-1) != 0 {
		t.Errorf("tagged 32-way set count %d not a power of two", sets)
	}
	New(cfg) // must not panic
	// Out-of-range tag widths are rejected.
	cfg.PIDBits = 17
	if err := cfg.Validate(); err == nil {
		t.Error("pid tag width 17 accepted")
	}
}

// TestFlushAllRebuildsVacancies checks that a flushed SNC accepts exactly
// its capacity again — FlushAll leaves every set empty, as New builds it.
func TestFlushAllRebuildsVacancies(t *testing.T) {
	s := New(smallCfg(LRU, 2))
	capacity := s.Config().Entries()
	for i := 0; i < capacity; i++ {
		s.Install(uint64(i)*128, uint16(i))
	}
	s.FlushAll()
	for i := 0; i < capacity; i++ {
		if _, _, evicted := s.Install(uint64(100+i)*128, 1); evicted {
			t.Fatalf("install %d evicted in a freshly flushed SNC", i)
		}
	}
	if s.Occupied() != capacity {
		t.Errorf("occupied = %d, want %d", s.Occupied(), capacity)
	}
}

// TestOccupancyNeverExceedsCapacity is a property test over random
// operation sequences.
func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64, ops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(smallCfg(LRU, 2))
		cap := s.Config().Entries()
		for i := 0; i < int(ops); i++ {
			va := uint64(rng.Intn(64)) * 128
			switch rng.Intn(3) {
			case 0:
				s.Query(va)
			case 1:
				s.Update(va)
			case 2:
				s.Install(va, uint16(rng.Intn(100)))
			}
			if s.Occupied() > cap {
				return false
			}
		}
		// Contains must agree with Query hit for a fresh install.
		va := uint64(rng.Intn(64)) * 128
		s.Install(va, 1)
		return s.Contains(va)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPaperGeometries verifies the three Figure 6 sizes and the Figure 7
// associativity are constructible with the paper's parameters.
func TestPaperGeometries(t *testing.T) {
	for _, size := range []int{32 << 10, 64 << 10, 128 << 10} {
		for _, ways := range []int{0, 32} {
			cfg := Config{SizeBytes: size, EntryBytes: 2, Ways: ways, LineBytes: 128, Policy: LRU}
			if err := cfg.Validate(); err != nil {
				t.Errorf("size=%d ways=%d: %v", size, ways, err)
			}
			New(cfg) // must not panic
		}
	}
}

// TestRestoreCopiesContentsAndRecency: a copy taken after LRU churn by
// restoring a fresh SNC from the source, restored in turn into another
// fresh SNC, reproduces the source's contents, recency and counters: the
// restored SNC answers like a twin that went through the same operations.
// Later work on the source leaves the copy untouched, so it seeds a second
// restore just as well.
func TestRestoreCopiesContentsAndRecency(t *testing.T) {
	for _, ways := range []int{0, 1, 2} {
		cfg := smallCfg(LRU, ways)
		src, twins := New(cfg), []*SNC{New(cfg), New(cfg)}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 200; i++ {
			line, upd := uint64(rng.Intn(20))*128, uint64(rng.Intn(20))*128
			for _, s := range append([]*SNC{src}, twins...) {
				s.Install(line, uint16(i))
				s.Update(upd)
			}
		}
		cp := New(cfg)
		cp.Restore(src)
		src.FlushAll()
		src.Install(0x9900, 1)
		for i, twin := range twins {
			dst := New(cfg)
			dst.Install(0x7700, 1) // state the restore must overwrite
			dst.Restore(cp)
			if dst.Occupied() != twin.Occupied() || dst.UpdateHits != twin.UpdateHits || dst.QueryMisses != twin.QueryMisses {
				t.Fatalf("ways=%d restore %d: occupancy/counters differ from the twin's", ways, i)
			}
			for line := uint64(0); line < 20; line++ {
				got, gok := dst.Peek(line * 128)
				want, wok := twin.Peek(line * 128)
				if got != want || gok != wok {
					t.Errorf("ways=%d restore %d line %d: (%d,%v), want (%d,%v)", ways, i, line, got, gok, want, wok)
				}
			}
			if dst.Contains(0x7700) || dst.Contains(0x9900) {
				t.Errorf("ways=%d restore %d: holds a line the copy does not", ways, i)
			}
			// Recency survives: the next install evicts the twin's victim.
			v, _, e := dst.Install(0x100000, 7)
			wv, _, we := twin.Install(0x100000, 7)
			if v != wv || e != we {
				t.Errorf("ways=%d restore %d: evicts %#x (%v), want %#x (%v)", ways, i, v, e, wv, we)
			}
		}
	}
}
