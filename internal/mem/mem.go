// Package mem models the off-chip memory system: a fixed-latency DRAM, a
// shared memory bus with contention, a write buffer, and a functional
// (byte-accurate) physical memory image.
//
// The paper assumes a typical 100-cycle memory access latency (Section 5)
// and a write buffer that "steals idle bus cycles efficiently" (Section 3.4)
// so that writes are off the critical path. Figure 9 measures the extra bus
// traffic induced by SNC replacements, so the bus tracks per-source
// transaction counts.
package mem

import (
	"fmt"
	"sort"
)

// DRAMConfig describes main memory timing.
type DRAMConfig struct {
	// AccessLatency is the cycles from request issue to first data back
	// (the paper's 100).
	AccessLatency uint64
	// BusCyclesPerLine is how long one line transfer occupies the bus.
	BusCyclesPerLine uint64
}

// DefaultDRAMConfig is the paper's memory: 100-cycle latency; a 128-byte
// line at 16 bytes/cycle occupies the bus for 8 cycles.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{AccessLatency: 100, BusCyclesPerLine: 8}
}

// Validate reports configuration errors.
func (c DRAMConfig) Validate() error {
	if c.AccessLatency == 0 {
		return fmt.Errorf("mem: access latency must be positive")
	}
	if c.BusCyclesPerLine == 0 {
		return fmt.Errorf("mem: bus cycles per line must be positive")
	}
	return nil
}

// TrafficSource labels bus transactions for the Figure 9 accounting.
type TrafficSource int

const (
	// SrcLineFill is a demand line read from DRAM.
	SrcLineFill TrafficSource = iota
	// SrcWriteback is a dirty-line write to DRAM.
	SrcWriteback
	// SrcSeqNumFetch is an SNC-miss read of a sequence number from DRAM.
	SrcSeqNumFetch
	// SrcSeqNumSpill is an SNC replacement writing a sequence number out.
	SrcSeqNumSpill
	// SrcMACFetch is an integrity-scheme read of a line's MAC from the
	// off-chip MAC table.
	SrcMACFetch
	// SrcMACUpdate is an integrity-scheme write refreshing a line's MAC
	// after a writeback.
	SrcMACUpdate
	numSources
)

// String names the traffic source.
func (s TrafficSource) String() string {
	switch s {
	case SrcLineFill:
		return "linefill"
	case SrcWriteback:
		return "writeback"
	case SrcSeqNumFetch:
		return "seqnum-fetch"
	case SrcSeqNumSpill:
		return "seqnum-spill"
	case SrcMACFetch:
		return "mac-fetch"
	case SrcMACUpdate:
		return "mac-update"
	default:
		return "unknown"
	}
}

// Bus models a single shared memory bus. Demand reads reserve slots in
// request order; writebacks opportunistically use idle slots.
type Bus struct {
	cfg      DRAMConfig
	nextFree uint64
	// writeFree is when the last write transfer ends: writes serialize
	// against each other even though they never reserve the bus against
	// future reads.
	writeFree uint64
	// Transactions counts bus uses by source.
	Transactions [numSources]uint64
}

// NewBus builds the bus model.
func NewBus(cfg DRAMConfig) *Bus {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Bus{cfg: cfg}
}

// Read performs a demand line read issued at `now`, returning the cycle the
// full line is available on chip: bus grant + DRAM latency + transfer.
func (b *Bus) Read(now uint64, src TrafficSource) (done uint64) {
	start := now
	if b.nextFree > start {
		start = b.nextFree
	}
	b.nextFree = start + b.cfg.BusCyclesPerLine
	b.Transactions[src]++
	return start + b.cfg.AccessLatency + b.cfg.BusCyclesPerLine
}

// Write performs a line write issued at `now` (from the write buffer),
// returning when the transfer completes. Following the paper's write-buffer
// model ("write buffers ... steal idle bus cycles efficiently", Section
// 3.4), writes yield to demand reads: they wait for any in-progress read
// transfer but do not reserve the bus against future reads. They do occupy
// the single bus while transferring, so writes serialize against each other
// — a burst of writebacks issued at the same cycle drains one line-time
// apart, not for free in parallel.
func (b *Bus) Write(now uint64, src TrafficSource) (done uint64) {
	start := now
	if b.nextFree > start {
		start = b.nextFree
	}
	if b.writeFree > start {
		start = b.writeFree
	}
	b.writeFree = start + b.cfg.BusCyclesPerLine
	b.Transactions[src]++
	return start + b.cfg.BusCyclesPerLine
}

// DemandTransactions returns fills + writebacks (the paper's "L2 cache
// memory traffic" denominator for Figure 9).
func (b *Bus) DemandTransactions() uint64 {
	return b.Transactions[SrcLineFill] + b.Transactions[SrcWriteback]
}

// Config returns the bus/DRAM configuration.
func (b *Bus) Config() DRAMConfig { return b.cfg }

// ResetStats clears counters (keeps timing state).
func (b *Bus) ResetStats() {
	b.Transactions = [numSources]uint64{}
}

// WriteBuffer models the deferred-write queue between L2 and memory
// (paper Figure 2/4). Evicted lines wait here while being encrypted; entries
// drain to the bus in FIFO order. The CPU only stalls when the buffer is
// full.
type WriteBuffer struct {
	depth   int
	pending []uint64 // completion times of in-flight drains, sorted
}

// NewWriteBuffer creates a buffer with the given capacity. The pending
// queue never holds more than depth entries, so it is allocated at full
// size up front and Insert never grows it, on a fresh buffer included.
func NewWriteBuffer(depth int) *WriteBuffer {
	if depth <= 0 {
		panic("mem: write buffer depth must be positive")
	}
	return &WriteBuffer{depth: depth, pending: make([]uint64, 0, depth)}
}

// Insert queues a write at time `now` whose data becomes eligible to drain
// at `ready` (e.g. after encryption finishes); it drains to bus as a src
// transaction. It returns the time the CPU may proceed: `now` unless the
// buffer was full, in which case the CPU waits for the oldest entry to
// drain. The bus is an argument rather than a field, so Restore has no
// bus pointer to put back.
func (w *WriteBuffer) Insert(now, ready uint64, bus *Bus, src TrafficSource) (cpuFree uint64) {
	// Retire entries that have drained by now. Compact in place rather than
	// re-slicing so the backing array keeps its depth-sized capacity and
	// the sorted insert below never allocates.
	i := 0
	for i < len(w.pending) && w.pending[i] <= now {
		i++
	}
	if i > 0 {
		n := copy(w.pending, w.pending[i:])
		w.pending = w.pending[:n]
	}
	cpuFree = now
	if len(w.pending) >= w.depth {
		cpuFree = w.pending[0]
		n := copy(w.pending, w.pending[1:])
		w.pending = w.pending[:n]
	}
	done := bus.Write(max(cpuFree, ready), src)
	// Insert keeping sorted order (drains can complete out of order when
	// ready times differ).
	pos := sort.Search(len(w.pending), func(j int) bool { return w.pending[j] > done }) //secsim:allowalloc non-escaping search closure; inlined by the compiler
	w.pending = append(w.pending, 0)                                                    //secsim:allowalloc preallocated to depth and compacted in place: append never grows it
	copy(w.pending[pos+1:], w.pending[pos:])
	w.pending[pos] = done
	return cpuFree
}

// Restore copies the pending drain completion times of src, a buffer with
// the same depth, into w. w keeps its depth-sized backing array, so a restored
// buffer stays allocation-free.
func (w *WriteBuffer) Restore(src *WriteBuffer) {
	p := w.pending
	*w = *src
	w.pending = append(p[:0], src.pending...)
}

// pageBits sets the functional memory's page size: 4KB.
const pageBits = 12

// Memory is the functional byte-accurate physical memory image: a sparse
// map of 4KB pages, allocated on first write. The secure schemes store
// real ciphertext here so that tampering experiments operate on actual
// bytes.
type Memory struct {
	pages map[uint64][]byte
}

// NewMemory creates an empty sparse memory with 4KB pages.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64][]byte)}
}

// Read copies len(dst) bytes starting at addr into dst. Unwritten memory
// reads as zero.
func (m *Memory) Read(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr & (1<<pageBits - 1)
		n := min(int(1<<pageBits-off), len(dst))
		if p := m.pages[addr>>pageBits]; p != nil {
			copy(dst[:n], p[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += uint64(n)
	}
}

// Write stores src at addr.
func (m *Memory) Write(addr uint64, src []byte) {
	for len(src) > 0 {
		p := m.pages[addr>>pageBits]
		if p == nil {
			p = make([]byte, 1<<pageBits)
			m.pages[addr>>pageBits] = p
		}
		n := copy(p[addr&(1<<pageBits-1):], src)
		src = src[n:]
		addr += uint64(n)
	}
}

// PagesAllocated returns the number of backing pages (test/diagnostic aid).
func (m *Memory) PagesAllocated() int { return len(m.pages) }
