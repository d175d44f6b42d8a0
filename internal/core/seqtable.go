package core

import (
	"math/bits"
	"unsafe"
)

// seqTable is the architectural in-memory sequence-number table: line VA →
// 16-bit sequence number, with explicit presence (a stored zero is distinct
// from "never spilled"). It replaces a map[uint64]uint16 on the SNC-miss
// path with a two-level structure mirroring internal/mem's page directory:
// a sparse chunk map on top, dense per-chunk arrays plus a presence bitmap
// below, and a last-chunk cache so the streaky line addresses the workloads
// generate resolve in two compares and two array loads.
type seqTable struct {
	chunks    map[uint64]*seqChunk
	lastCN    uint64
	lastChunk *seqChunk
	lineShift uint
}

// seqChunkBits is the log2 of lines per chunk: 512 lines × 128B span 64KB
// of address space per chunk.
const seqChunkBits = 9

type seqChunk struct {
	present [1 << seqChunkBits / 64]uint64
	seq     [1 << seqChunkBits]uint16
}

// newSeqTable builds an empty table for the given line size (a power of
// two; the chunk index is taken above the line offset).
func newSeqTable(lineBytes int) *seqTable {
	return &seqTable{
		chunks:    make(map[uint64]*seqChunk),
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
	}
}

// chunk returns the chunk covering va (creating it if create), plus va's
// line index within it.
func (t *seqTable) chunk(va uint64, create bool) (*seqChunk, uint64) {
	line := va >> t.lineShift
	idx := line & (1<<seqChunkBits - 1)
	cn := line >> seqChunkBits
	if t.lastChunk != nil && cn == t.lastCN {
		return t.lastChunk, idx
	}
	ch := t.chunks[cn]
	if ch == nil {
		if !create {
			return nil, idx
		}
		ch = new(seqChunk) //secsim:allowalloc one-time chunk fault per 4MB region; steady state touches no new chunks
		t.chunks[cn] = ch  //secsim:allowalloc chunk directory grows only on first touch of a region
	}
	t.lastCN, t.lastChunk = cn, ch
	return ch, idx
}

// lookup returns the stored number and whether va has one.
func (t *seqTable) lookup(va uint64) (uint16, bool) {
	ch, idx := t.chunk(va, false)
	if ch == nil || ch.present[idx>>6]&(1<<(idx&63)) == 0 {
		return 0, false
	}
	return ch.seq[idx], true
}

// get returns the stored number, zero when absent (map-read semantics).
func (t *seqTable) get(va uint64) uint16 {
	v, _ := t.lookup(va)
	return v
}

// set stores v for va, marking it present.
func (t *seqTable) set(va uint64, v uint16) {
	ch, idx := t.chunk(va, true)
	ch.present[idx>>6] |= 1 << (idx & 63)
	ch.seq[idx] = v
}

// inc adds one to va's number and returns the new number (installing 1
// when absent, like a map's self-increment of a missing key — the array
// cell may hold a stale value from a deleted entry, so absence must reset
// it, not increment it).
func (t *seqTable) inc(va uint64) uint16 {
	ch, idx := t.chunk(va, true)
	if ch.present[idx>>6]&(1<<(idx&63)) == 0 {
		ch.present[idx>>6] |= 1 << (idx & 63)
		ch.seq[idx] = 1
		return 1
	}
	ch.seq[idx]++
	return ch.seq[idx]
}

// del removes va's number.
func (t *seqTable) del(va uint64) {
	ch, idx := t.chunk(va, false)
	if ch != nil {
		ch.present[idx>>6] &^= 1 << (idx & 63)
	}
}

// restore deep-copies src into t. Chunks already present in t are
// overwritten in place and stale ones deleted, so repeatedly restoring
// checkpoints into the same live table is allocation-free once the working
// set stabilizes. The last-chunk cache is left cold; it repopulates on
// first access.
func (t *seqTable) restore(src *seqTable) {
	t.lineShift = src.lineShift
	t.lastCN, t.lastChunk = 0, nil
	for cn := range t.chunks {
		if _, ok := src.chunks[cn]; !ok {
			delete(t.chunks, cn)
		}
	}
	for cn, ch := range src.chunks {
		d := t.chunks[cn]
		if d == nil {
			d = new(seqChunk)
			t.chunks[cn] = d
		}
		*d = *ch
	}
}

// bytes reports the heap bytes the table holds: the struct and its chunks,
// each with its directory slot (key and pointer). It allocates nothing.
func (t *seqTable) bytes() int {
	return int(unsafe.Sizeof(*t)) + len(t.chunks)*int(unsafe.Sizeof(seqChunk{})+16)
}
