package snc

import "math/bits"

// tagIndex is an open-addressed linear-probe hash index from line tag to
// entry slot, one fixed-size table per set. It replaces the per-set
// map[uint64]int the SNC used to carry: a set holds at most `ways`
// entries, so each table is sized once at 2× the way count (load factor
// ≤ 0.5) and never grows, lookups are two array loads with no hashing
// allocation, and deletion uses backward-shift compaction so probe chains
// never accumulate tombstones. All sets' tables live in two flat arrays,
// set si owning cells [si*size, (si+1)*size), so an index costs two
// allocations whatever the set count.
type tagIndex struct {
	keys  []uint64
	slots []int32 // -1 = empty
	mask  uint32  // cells per set - 1
	shift uint    // 64 - log2(cells per set), for the multiplicative hash
}

// fibMul is 2^64 / φ, the Fibonacci-hashing multiplier: it diffuses the
// low-entropy line tags (sequential and strided walks) across the table.
const fibMul = 0x9E3779B97F4A7C15

// init sizes the index for sets tables of up to capacity live entries each
// and marks every cell empty. Reusable: calling it again with the same
// shape clears the index in place.
func (t *tagIndex) init(sets, capacity int) {
	size := 8
	for size < 2*capacity {
		size <<= 1
	}
	if len(t.slots) != sets*size {
		t.keys = make([]uint64, sets*size) //secsim:allowalloc reallocated only when the shape changes; restores clear in place
		t.slots = make([]int32, sets*size) //secsim:allowalloc reallocated only when the shape changes
		t.mask = uint32(size - 1)
		t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	}
	for i := range t.slots {
		t.slots[i] = -1
	}
}

// cells returns set si's table.
func (t *tagIndex) cells(si int) (keys []uint64, slots []int32) {
	off := uint32(si) * (t.mask + 1)
	return t.keys[off : off+t.mask+1], t.slots[off : off+t.mask+1]
}

// clear marks set si's cells empty.
func (t *tagIndex) clear(si int) {
	_, slots := t.cells(si)
	for i := range slots {
		slots[i] = -1
	}
}

func (t *tagIndex) home(tag uint64) uint32 {
	return uint32((tag * fibMul) >> t.shift)
}

// find returns the entry slot for tag in set si, or ok=false.
func (t *tagIndex) find(si int, tag uint64) (slot int32, ok bool) {
	keys, slots := t.cells(si)
	i := t.home(tag)
	for {
		s := slots[i]
		if s < 0 {
			return 0, false
		}
		if keys[i] == tag {
			return s, true
		}
		i = (i + 1) & t.mask
	}
}

// put inserts or updates the slot for tag in set si.
func (t *tagIndex) put(si int, tag uint64, slot int32) {
	keys, slots := t.cells(si)
	i := t.home(tag)
	for {
		s := slots[i]
		if s < 0 || keys[i] == tag {
			keys[i] = tag
			slots[i] = slot
			return
		}
		i = (i + 1) & t.mask
	}
}

// del removes tag from set si, compacting the probe chain behind it
// (backward-shift deletion) so later finds never walk dead cells.
func (t *tagIndex) del(si int, tag uint64) {
	keys, slots := t.cells(si)
	i := t.home(tag)
	for {
		if slots[i] < 0 {
			return // not present
		}
		if keys[i] == tag {
			break
		}
		i = (i + 1) & t.mask
	}
	// Shift successors whose home position precedes the hole back into it.
	j := i
	for {
		j = (j + 1) & t.mask
		if slots[j] < 0 {
			break
		}
		h := t.home(keys[j])
		// j is displaced past the hole iff the hole lies cyclically within
		// [h, j); only then may the entry legally move back to i.
		if (j-h)&t.mask >= (j-i)&t.mask {
			keys[i] = keys[j]
			slots[i] = slots[j]
			i = j
		}
	}
	slots[i] = -1
}
