package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func cfg4way() Config {
	return Config{Name: "t", SizeBytes: 1024, LineBytes: 64, Ways: 4}
}

func TestValidate(t *testing.T) {
	good := []Config{
		cfg4way(),
		{Name: "fa", SizeBytes: 1024, LineBytes: 64, Ways: 0},
		{Name: "l2", SizeBytes: 256 << 10, LineBytes: 128, Ways: 4},
	}
	for i, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("good[%d]: %v", i, err)
		}
	}
	bad := []Config{
		{SizeBytes: 0, LineBytes: 64, Ways: 1},
		{SizeBytes: 1000, LineBytes: 64, Ways: 1},       // size not multiple of line
		{SizeBytes: 1024, LineBytes: 60, Ways: 1},       // line not power of two
		{SizeBytes: 3 * 64 * 4, LineBytes: 64, Ways: 4}, // sets=3 not pow2
		{SizeBytes: 1024, LineBytes: 64, Ways: 5},       // lines not divisible
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad[%d] (%+v): expected error", i, c)
		}
	}
}

func TestHitAfterFill(t *testing.T) {
	c := New(cfg4way())
	if r := c.Access(0x1000, false); r.Hit {
		t.Error("first access should miss")
	}
	if r := c.Access(0x1000, false); !r.Hit {
		t.Error("second access should hit")
	}
	if r := c.Access(0x1030, false); !r.Hit {
		t.Error("same-line access should hit")
	}
	if c.Accesses != 3 || c.Hits != 2 || c.Misses != 1 {
		t.Errorf("stats: %d/%d/%d", c.Accesses, c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	// 4 ways; access 5 lines mapping to the same set; the first (LRU) must
	// be evicted.
	c := New(cfg4way())
	sets := 1024 / 64 / 4 // 4 sets
	stride := uint64(64 * sets)
	for i := uint64(0); i < 5; i++ {
		c.Access(i*stride, false)
	}
	if c.Probe(0) {
		t.Error("line 0 should have been evicted (LRU)")
	}
	for i := uint64(1); i < 5; i++ {
		if !c.Probe(i * stride) {
			t.Errorf("line %d should be present", i)
		}
	}
}

func TestLRUTouchedLineSurvives(t *testing.T) {
	c := New(cfg4way())
	sets := 4
	stride := uint64(64 * sets)
	for i := uint64(0); i < 4; i++ {
		c.Access(i*stride, false)
	}
	c.Access(0, false) // touch line 0, now line 1 is LRU
	c.Access(4*stride, false)
	if !c.Probe(0) {
		t.Error("recently used line 0 evicted")
	}
	if c.Probe(stride) {
		t.Error("LRU line 1 not evicted")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := New(cfg4way())
	stride := uint64(64 * 4)
	c.Access(0, true) // dirty line
	for i := uint64(1); i < 4; i++ {
		c.Access(i*stride, false)
	}
	r := c.Access(4*stride, false)
	if !r.WritebackNeeded {
		t.Fatal("expected writeback of dirty line")
	}
	if r.WritebackAddr != 0 {
		t.Errorf("writeback addr = %#x, want 0", r.WritebackAddr)
	}
	if c.Writebacks != 1 {
		t.Errorf("Writebacks = %d", c.Writebacks)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := New(cfg4way())
	stride := uint64(64 * 4)
	for i := uint64(0); i < 5; i++ {
		r := c.Access(i*stride, false)
		if r.WritebackNeeded {
			t.Error("clean eviction should not write back")
		}
	}
}

func TestWriteAllocates(t *testing.T) {
	c := New(cfg4way())
	if r := c.Access(0x40, true); r.Hit {
		t.Error("write miss expected")
	}
	if !c.Probe(0x40) {
		t.Error("write should allocate the line")
	}
}

func TestFullyAssociative(t *testing.T) {
	c := New(Config{Name: "fa", SizeBytes: 512, LineBytes: 64, Ways: 0})
	// 8 lines, any addresses coexist.
	addrs := []uint64{0, 1 << 20, 3 << 13, 7 << 9, 5 << 30, 64, 128, 1 << 40}
	for _, a := range addrs {
		c.Access(a, false)
	}
	for _, a := range addrs {
		if !c.Probe(a) {
			t.Errorf("addr %#x missing from fully associative cache", a)
		}
	}
	c.Access(1<<50, false)
	if c.Probe(0) {
		t.Error("oldest line should be evicted")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := New(cfg4way())
	c.Access(0, true)
	c.Access(64, false)
	c.Access(128, true)
	dirty := c.InvalidateAll()
	if len(dirty) != 2 {
		t.Fatalf("got %d dirty lines, want 2", len(dirty))
	}
	if c.Probe(0) || c.Probe(64) || c.Probe(128) {
		t.Error("lines still present after InvalidateAll")
	}
}

func TestLineAddr(t *testing.T) {
	c := New(Config{Name: "t", SizeBytes: 1024, LineBytes: 128, Ways: 4})
	if got := c.LineAddr(0x1234); got != 0x1200 {
		t.Errorf("LineAddr(0x1234) = %#x, want 0x1200", got)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := New(cfg4way())
	c.Access(0, false)
	c.Access(0, false)
	if c.Accesses != 2 || c.Hits != 1 || c.Misses != 1 {
		t.Errorf("accesses/hits/misses = %d/%d/%d, want 2/1/1", c.Accesses, c.Hits, c.Misses)
	}
	c.ResetStats()
	if c.Accesses != 0 || c.Hits != 0 || c.Misses != 0 {
		t.Error("ResetStats did not clear")
	}
	if !c.Probe(0) {
		t.Error("ResetStats must keep contents")
	}
}

// TestInclusionInvariant: after any access sequence, the number of valid
// distinct lines never exceeds capacity, and probing immediately after
// access always hits.
func TestInvariantProbeAfterAccess(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{Name: "p", SizeBytes: 2048, LineBytes: 64, Ways: 2})
		for i := 0; i < int(n); i++ {
			addr := uint64(rng.Intn(1 << 16))
			c.Access(addr, rng.Intn(2) == 0)
			if !c.Probe(addr) {
				return false
			}
		}
		return c.Hits+c.Misses == c.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPaperL2Geometry(t *testing.T) {
	// The paper's L2: 256KB, 4-way, 128B lines => 512 sets.
	c := New(Config{Name: "L2", SizeBytes: 256 << 10, LineBytes: 128, Ways: 4})
	if got := len(c.tags) / c.ways; got != 512 {
		t.Errorf("L2 sets = %d, want 512", got)
	}
}

// TestHoldsComparesContentsAndClock: Holds matches a copy of the same
// state even after the statistics move, and rejects any change to a line,
// its recency or dirty bit, or the LRU clock.
func TestHoldsComparesContentsAndClock(t *testing.T) {
	c := New(cfg4way())
	c.Access(0x1000, true)
	c.Access(0x2000, false)
	snap := New(cfg4way())
	snap.Restore(c)
	c.ResetStats()
	if !c.Holds(snap) {
		t.Fatal("Holds rejects its own state after a stats reset")
	}
	c.Access(0x1000, false) // hit: recency and clock move
	if c.Holds(snap) {
		t.Error("Holds accepts a state whose recency moved")
	}
	c.Restore(snap)
	if !c.Holds(snap) {
		t.Error("Holds rejects the restored state")
	}
	if New(cfg4way()).Holds(snap) {
		t.Error("Holds accepts an empty cache")
	}
}
