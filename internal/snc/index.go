package snc

import "math/bits"

// tagIndex is an open-addressed linear-probe hash index from line tag to
// entry slot, one fixed-size table per set. A set holds at most `ways`
// entries, so each table is sized once at the smallest power of two of at
// least 2× the way count (load factor ≤ 0.5) and never grows, and deletion
// uses backward-shift compaction so probe chains never accumulate
// tombstones. A cell holds only a slot; the tag it stands for is read from
// the entry it points at, so each tag is stored once, in the SNC's entry
// array, and copying an SNC copies its index like any other array. All
// sets' tables live in one flat array, set si owning cells
// [si*size, (si+1)*size), so an index costs one allocation whatever the set
// count.
type tagIndex struct {
	slots []int32 // -1 = empty
	mask  uint32  // cells per set - 1
	shift uint    // 64 - log2(cells per set), for the multiplicative hash
}

// fibMul is 2^64 / φ, the Fibonacci-hashing multiplier: it diffuses the
// low-entropy line tags (sequential and strided walks) across the table.
const fibMul = 0x9E3779B97F4A7C15

// newTagIndex builds an empty index of sets tables, each sized for up to
// capacity live entries.
func newTagIndex(sets, capacity int) tagIndex {
	size := 1 << bits.Len(uint(2*capacity-1))
	t := tagIndex{
		slots: make([]int32, sets*size),
		mask:  uint32(size - 1),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
	}
	for i := range t.slots {
		t.slots[i] = -1
	}
	return t
}

// cells returns set si's table.
func (t *tagIndex) cells(si int) []int32 {
	off := uint32(si) * (t.mask + 1)
	return t.slots[off : off+t.mask+1]
}

// clear marks set si's cells empty.
func (t *tagIndex) clear(si int) {
	slots := t.cells(si)
	for i := range slots {
		slots[i] = -1
	}
}

func (t *tagIndex) home(tag uint64) uint32 {
	return uint32((tag * fibMul) >> t.shift)
}

// find returns the entry slot for tag in set si, or ok=false. entries is
// the array the index's slots point into.
func (t *tagIndex) find(entries []entry, si int, tag uint64) (slot int32, ok bool) {
	slots := t.cells(si)
	i := t.home(tag)
	for {
		s := slots[i]
		if s < 0 {
			return 0, false
		}
		if entries[s].tag == tag {
			return s, true
		}
		i = (i + 1) & t.mask
	}
}

// put indexes slot, whose entry already holds its tag, in set si. The tag
// must not be indexed yet.
func (t *tagIndex) put(entries []entry, si int, slot int32) {
	slots := t.cells(si)
	i := t.home(entries[slot].tag)
	for slots[i] >= 0 {
		i = (i + 1) & t.mask
	}
	slots[i] = slot
}

// del removes tag from set si, compacting the probe chain behind it
// (backward-shift deletion) so later finds never walk dead cells. The
// entries of every indexed slot, tag's included, must still hold their
// tags.
func (t *tagIndex) del(entries []entry, si int, tag uint64) {
	slots := t.cells(si)
	i := t.home(tag)
	for {
		if slots[i] < 0 {
			return // not present
		}
		if entries[slots[i]].tag == tag {
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
		h := t.home(entries[slots[j]].tag)
		// j is displaced past the hole iff the hole lies cyclically within
		// [h, j); only then may the entry legally move back to i.
		if (j-h)&t.mask >= (j-i)&t.mask {
			slots[i] = slots[j]
			i = j
		}
	}
	slots[i] = -1
}
