package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefaultDRAMConfig(t *testing.T) {
	cfg := DefaultDRAMConfig()
	if cfg.AccessLatency != 100 || cfg.BusCyclesPerLine != 8 {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
	if err := (DRAMConfig{}).Validate(); err == nil {
		t.Error("zero config should be invalid")
	}
	if err := (DRAMConfig{AccessLatency: 100}).Validate(); err == nil {
		t.Error("zero bus cycles should be invalid")
	}
}

func TestBusReadLatency(t *testing.T) {
	b := NewBus(DefaultDRAMConfig())
	if done := b.Read(0, SrcLineFill); done != 108 {
		t.Errorf("Read(0) = %d, want 108 (100 latency + 8 transfer)", done)
	}
	if b.Transactions[SrcLineFill] != 1 {
		t.Error("line fill not counted")
	}
}

func TestBusContention(t *testing.T) {
	b := NewBus(DefaultDRAMConfig())
	d1 := b.Read(0, SrcLineFill)   // bus 0..8
	d2 := b.Read(0, SrcLineFill)   // bus 8..16
	d3 := b.Write(0, SrcWriteback) // waits for in-progress reads, then 8 cycles
	if d1 != 108 || d2 != 116 || d3 != 24 {
		t.Errorf("got %d,%d,%d want 108,116,24", d1, d2, d3)
	}
	// A later demand read is NOT delayed by the deferred write (writes
	// steal idle cycles rather than reserving slots).
	if d4 := b.Read(16, SrcLineFill); d4 != 16+108 {
		t.Errorf("read after write = %d, want 124", d4)
	}
	if b.Transactions[SrcLineFill] != 3 || b.Transactions[SrcWriteback] != 1 {
		t.Errorf("transactions = %v, want 3 fills + 1 writeback", b.Transactions)
	}
}

func TestBusWritesSerialize(t *testing.T) {
	// Two writebacks issued at the same cycle occupy the single bus one
	// after the other; they must not overlap for free.
	b := NewBus(DefaultDRAMConfig())
	d1 := b.Write(0, SrcWriteback)
	d2 := b.Write(0, SrcWriteback)
	d3 := b.Write(0, SrcSeqNumSpill)
	if d1 != 8 || d2 != 16 || d3 != 24 {
		t.Errorf("write burst = %d,%d,%d want 8,16,24", d1, d2, d3)
	}
	// Writes still do not reserve the bus against future demand reads.
	if d4 := b.Read(0, SrcLineFill); d4 != 108 {
		t.Errorf("read alongside write burst = %d, want 108", d4)
	}
	// But a write issued later still queues behind the earlier writes.
	if d5 := b.Write(10, SrcWriteback); d5 != 32 {
		t.Errorf("late write = %d, want 32 (queued behind the burst)", d5)
	}
}

func TestBusTrafficAccounting(t *testing.T) {
	b := NewBus(DefaultDRAMConfig())
	b.Read(0, SrcLineFill)
	b.Write(0, SrcWriteback)
	b.Read(0, SrcSeqNumFetch)
	b.Write(0, SrcSeqNumSpill)
	for _, src := range []TrafficSource{SrcLineFill, SrcWriteback, SrcSeqNumFetch, SrcSeqNumSpill} {
		if b.Transactions[src] != 1 {
			t.Errorf("%v = %d, want 1", src, b.Transactions[src])
		}
	}
	if b.DemandTransactions() != 2 {
		t.Errorf("demand = %d", b.DemandTransactions())
	}
	b.ResetStats()
	if b.Transactions != [numSources]uint64{} {
		t.Error("ResetStats failed")
	}
}

func TestTrafficSourceString(t *testing.T) {
	names := map[TrafficSource]string{
		SrcLineFill:       "linefill",
		SrcWriteback:      "writeback",
		SrcSeqNumFetch:    "seqnum-fetch",
		SrcSeqNumSpill:    "seqnum-spill",
		TrafficSource(99): "unknown",
	}
	for src, want := range names {
		if got := src.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", src, got, want)
		}
	}
}

func TestWriteBufferNoStallWhenEmpty(t *testing.T) {
	b := NewBus(DefaultDRAMConfig())
	w := NewWriteBuffer(4)
	free := w.Insert(10, 10, b, SrcWriteback)
	if free != 10 {
		t.Errorf("cpuFree = %d, want 10 (no stall)", free)
	}
	if b.Transactions[SrcWriteback] != 1 {
		t.Error("insert did not drain to the bus")
	}
}

func TestWriteBufferFullStalls(t *testing.T) {
	// Drains take 1000 cycles each; depth 2. The third insert at t=0 must
	// wait for the first drain.
	b := NewBus(DRAMConfig{AccessLatency: 100, BusCyclesPerLine: 1000})
	w := NewWriteBuffer(2)
	w.Insert(0, 0, b, SrcWriteback) // drains at 1000
	w.Insert(0, 0, b, SrcWriteback) // drains at 2000: writes serialize on the bus
	free := w.Insert(0, 0, b, SrcSeqNumSpill)
	if free != 1000 {
		t.Errorf("cpuFree = %d, want 1000", free)
	}
	if b.Transactions[SrcWriteback] != 2 || b.Transactions[SrcSeqNumSpill] != 1 {
		t.Errorf("transactions = %v, want 2 writebacks and 1 spill", b.Transactions)
	}
}

func TestWriteBufferRetiresDrained(t *testing.T) {
	b := NewBus(DRAMConfig{AccessLatency: 100, BusCyclesPerLine: 5})
	w := NewWriteBuffer(1)
	w.Insert(0, 0, b, SrcWriteback) // drains at 5
	// At t=100 the previous entry has drained; no stall.
	if free := w.Insert(100, 100, b, SrcWriteback); free != 100 {
		t.Errorf("cpuFree = %d, want 100", free)
	}
}

func TestWriteBufferInvalidDepth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for depth 0")
		}
	}()
	NewWriteBuffer(0)
}

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	m := NewMemory()
	data := []byte("the quick brown fox")
	m.Write(0x1000, data)
	got := make([]byte, len(data))
	m.Read(0x1000, got)
	if !bytes.Equal(got, data) {
		t.Errorf("round trip: %q != %q", got, data)
	}
}

func TestMemoryCrossPageAccess(t *testing.T) {
	m := NewMemory()
	data := make([]byte, 8192)
	for i := range data {
		data[i] = byte(i * 7)
	}
	m.Write(4096-100, data) // spans 3 pages
	got := make([]byte, len(data))
	m.Read(4096-100, got)
	if !bytes.Equal(got, data) {
		t.Error("cross-page round trip failed")
	}
	if m.PagesAllocated() != 3 {
		t.Errorf("pages = %d, want 3", m.PagesAllocated())
	}
}

func TestMemoryUnwrittenReadsZero(t *testing.T) {
	m := NewMemory()
	got := make([]byte, 16)
	for i := range got {
		got[i] = 0xFF
	}
	m.Read(0x99999000, got)
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
	if m.PagesAllocated() != 0 {
		t.Error("read must not allocate pages")
	}
}

// TestMemoryQuickRoundTrip is a property test over random offsets/lengths,
// including page-boundary spans.
func TestMemoryQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMemory()
		type chunk struct {
			addr uint64
			data []byte
		}
		var chunks []chunk
		base := uint64(rng.Intn(1 << 20))
		for i := 0; i < 10; i++ {
			n := rng.Intn(5000) + 1
			d := make([]byte, n)
			rng.Read(d)
			// Non-overlapping ascending chunks.
			chunks = append(chunks, chunk{base, d})
			m.Write(base, d)
			base += uint64(n) + uint64(rng.Intn(100))
		}
		for _, c := range chunks {
			got := make([]byte, len(c.data))
			m.Read(c.addr, got)
			if !bytes.Equal(got, c.data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPageDirectoryMatchesMapModel drives Memory and a plain
// map[addr]byte model through the same random write/read sequence and
// demands byte-identical contents — including reads of never-written
// (zero) memory, writes spanning page boundaries, and far-flung addresses.
func TestPageDirectoryMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := NewMemory()
	model := make(map[uint64]byte)

	// Address bases mix dense locality, a straddle of a 4MB boundary, and
	// sparse high addresses.
	bases := []uint64{
		0x0,
		0x1000,
		1<<22 - 17, // straddles a 4MB boundary
		3 << 22,
		0x7FFF_F000,
		0xDEAD_0000_0000,
		1<<52 + 12345,
	}
	for op := 0; op < 20000; op++ {
		addr := bases[rng.Intn(len(bases))] + uint64(rng.Intn(1<<14))
		n := 1 + rng.Intn(300) // spans page boundaries regularly
		if rng.Intn(2) == 0 {
			buf := make([]byte, n)
			rng.Read(buf)
			m.Write(addr, buf)
			for i, b := range buf {
				model[addr+uint64(i)] = b
			}
		} else {
			got := make([]byte, n)
			m.Read(addr, got)
			for i := range got {
				if want := model[addr+uint64(i)]; got[i] != want {
					t.Fatalf("op %d: Read(%#x)[%d] = %#x, want %#x", op, addr, i, got[i], want)
				}
			}
		}
	}

	// Memory must have materialized exactly the written pages.
	pages := make(map[uint64]bool)
	for a := range model {
		pages[a>>pageBits] = true
	}
	if got := m.PagesAllocated(); got != len(pages) {
		t.Errorf("PagesAllocated = %d, want %d", got, len(pages))
	}
}
