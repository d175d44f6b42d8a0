// Package snc implements the on-chip Sequence Number Cache of Section 4 of
// the paper.
//
// The SNC sits below the L2 cache, inside the security boundary, and maps
// the *virtual* address of an L2 line to the sequence number last used to
// encrypt that line (2 bytes per entry in the paper's evaluation; a 64KB SNC
// therefore holds 32K sequence numbers and covers 4MB of memory with 128B
// lines).
//
// Two operating policies from Section 4.1:
//
//   - LRU replacement: the SNC holds the hot subset; evicted sequence
//     numbers are spilled to (directly encrypted) memory, and misses fetch
//     them back.
//   - No replacement: entries are installed while vacancies exist and never
//     evicted; lines without an entry fall back to XOM-style direct
//     encryption.
//
// The SNC itself is policy-neutral storage with hit/miss and LRU mechanics;
// the scheme logic in internal/core drives it according to Algorithm 1.
package snc

import (
	"fmt"
	"math"
	"math/bits"
)

// Policy selects the replacement behaviour.
type Policy int

const (
	// LRU spills evicted sequence numbers to memory (paper "SNC-LRU").
	LRU Policy = iota
	// NoReplacement never evicts; uncovered lines use direct encryption
	// (paper "SNC-NoRepl").
	NoReplacement
)

// String names the policy as in the paper's figures.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "SNC-LRU"
	case NoReplacement:
		return "SNC-NoRepl"
	default:
		return "unknown"
	}
}

// Config describes an SNC.
type Config struct {
	// SizeBytes is the total SNC capacity (32KB/64KB/128KB in Figure 6).
	SizeBytes int
	// EntryBytes is the storage per sequence number (2 in the paper).
	EntryBytes int
	// Ways is the associativity; 0 means fully associative (the paper's
	// default; Figure 7 evaluates 32).
	Ways int
	// LineBytes is the L2 line size covered by one entry (128).
	LineBytes int
	// Policy is the replacement policy.
	Policy Policy
	// PIDBits is the per-entry process-ID tag width for multiprogrammed
	// operation (Section 4.3 option 2: "attaching a process ID to each
	// sequence number"). Tag bits are stored alongside each sequence number
	// in the same SizeBytes, shrinking the number of entries the SNC holds;
	// 0 means untagged (single-process operation).
	PIDBits int
}

// DefaultConfig is the paper's primary configuration: 64KB, fully
// associative, 2-byte entries over 128-byte lines, LRU.
func DefaultConfig() Config {
	return Config{SizeBytes: 64 << 10, EntryBytes: 2, Ways: 0, LineBytes: 128, Policy: LRU}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.EntryBytes <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("snc: sizes must be positive")
	}
	if c.SizeBytes%c.EntryBytes != 0 {
		return fmt.Errorf("snc: size %d not a multiple of entry size %d", c.SizeBytes, c.EntryBytes)
	}
	if c.PIDBits < 0 || c.PIDBits > 16 {
		return fmt.Errorf("snc: pid tag width %d out of range [0,16]", c.PIDBits)
	}
	entries := c.Entries()
	if entries <= 0 {
		return fmt.Errorf("snc: no entries fit %d bytes with %d-bit pid tags", c.SizeBytes, c.PIDBits)
	}
	ways := c.Ways
	if ways == 0 {
		ways = entries
	}
	if entries%ways != 0 {
		return fmt.Errorf("snc: %d entries not divisible by %d ways", entries, ways)
	}
	if sets := entries / ways; bits.OnesCount(uint(sets)) != 1 {
		return fmt.Errorf("snc: set count %d not a power of two", sets)
	}
	if bits.OnesCount(uint(c.LineBytes)) != 1 {
		return fmt.Errorf("snc: line size %d not a power of two", c.LineBytes)
	}
	return nil
}

// Entries returns the number of sequence numbers the SNC can hold. PID tag
// bits ride in the same storage, so a tagged SNC holds fewer entries; a
// set-associative tagged SNC additionally rounds down to the hardware's
// power-of-two set structure.
func (c Config) Entries() int {
	if c.PIDBits <= 0 {
		return c.SizeBytes / c.EntryBytes
	}
	raw := c.SizeBytes * 8 / (c.EntryBytes*8 + c.PIDBits)
	if c.Ways <= 0 {
		return raw // fully associative: a single set holds any count
	}
	sets := raw / c.Ways
	if sets <= 0 {
		return 0
	}
	sets = 1 << (bits.Len(uint(sets)) - 1)
	return sets * c.Ways
}

// CoverageBytes returns how much memory the SNC can cover (entries × line).
func (c Config) CoverageBytes() int { return c.Entries() * c.LineBytes }

type entry struct {
	tag uint64
	seq uint16
	// LRU list links within the set (indices into SNC.entries; -1 = none).
	// int32 keeps the entry at 24 bytes — the largest SNC the experiment
	// caps admit holds 256K entries, far inside the range.
	prev, next int32
}

// set holds the per-set LRU list endpoints. Vacant slots are handed out by
// a bump allocator: slots are only freed en masse by resetSet, so the next
// vacancy of set si, which owns [si*ways, (si+1)*ways), is always
// si*ways+bump — no free list to build or maintain.
type set struct {
	head, tail int32 // MRU..LRU (indices into SNC.entries; -1 = empty)
	bump       int32 // slots [si*ways, si*ways+bump) are allocated
}

// SNC is the sequence number cache. Lookups are O(1) via per-set
// open-addressed hash indexes; LRU is maintained with intrusive lists so
// fully associative configurations (a single 32K-way set in the paper's
// default) stay fast.
type SNC struct {
	cfg       Config
	entries   []entry
	sets      []set
	ways      int32
	setMask   uint64
	lineShift uint
	occupied  int

	// index maps each set's tags to their entry slots: every slot in
	// [si*ways, si*ways+bump) holds a live entry (eviction reuses the
	// victim's slot in place, so allocated slots are never individually
	// freed), and the index holds exactly those slots, keyed by the tags
	// their entries carry.
	index tagIndex

	// flushScratch backs FlushAll's result so steady-state context
	// switches stop allocating.
	flushScratch [][2]uint64

	// Statistics.
	QueryHits    uint64
	QueryMisses  uint64
	UpdateHits   uint64
	UpdateMisses uint64
	SeqOverflows uint64 // Updates that wrapped a 16-bit sequence number
}

// New builds an SNC, panicking on invalid configuration.
func New(cfg Config) *SNC {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	entries := cfg.Entries()
	ways := cfg.Ways
	if ways == 0 {
		ways = entries
	}
	nsets := entries / ways
	s := &SNC{
		cfg:       cfg,
		entries:   make([]entry, entries),
		sets:      make([]set, nsets),
		ways:      int32(ways),
		setMask:   uint64(nsets - 1),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		index:     newTagIndex(nsets, ways),
	}
	for i := range s.sets {
		s.sets[i] = set{head: -1, tail: -1}
	}
	return s
}

// resetSet empties set si: slots [si*ways, (si+1)*ways) become vacant again
// via the bump allocator.
func (s *SNC) resetSet(si int) {
	s.sets[si] = set{head: -1, tail: -1}
	s.index.clear(si)
}

// alloc hands out set si's next vacant slot, or -1 when it is full.
func (s *SNC) alloc(si int) int32 {
	st := &s.sets[si]
	if st.bump >= s.ways {
		return -1
	}
	st.bump++
	return int32(si)*s.ways + st.bump - 1
}

// unlink removes slot from its set's LRU list.
func (s *SNC) unlink(st *set, slot int32) {
	e := &s.entries[slot]
	if e.prev >= 0 {
		s.entries[e.prev].next = e.next
	} else {
		st.head = e.next
	}
	if e.next >= 0 {
		s.entries[e.next].prev = e.prev
	} else {
		st.tail = e.prev
	}
	e.prev, e.next = -1, -1
}

// pushFront makes slot the MRU of its set.
func (s *SNC) pushFront(st *set, slot int32) {
	e := &s.entries[slot]
	e.prev, e.next = -1, st.head
	if st.head >= 0 {
		s.entries[st.head].prev = slot
	}
	st.head = slot
	if st.tail < 0 {
		st.tail = slot
	}
}

// touch refreshes slot to MRU.
func (s *SNC) touch(st *set, slot int32) {
	if st.head == slot {
		return
	}
	s.unlink(st, slot)
	s.pushFront(st, slot)
}

// Config returns the SNC configuration.
func (s *SNC) Config() Config { return s.cfg }

// locate returns the set index and tag of a line.
func (s *SNC) locate(lineVA uint64) (si int, tag uint64) {
	lineNum := lineVA >> s.lineShift
	return int(lineNum & s.setMask), lineNum
}

// Query looks up the sequence number for a line being *read* from memory
// (paper: "query" operations fill the seed for decryption). On a hit the
// entry's LRU state is refreshed.
func (s *SNC) Query(lineVA uint64) (seq uint16, hit bool) {
	si, tag := s.locate(lineVA)
	if slot, ok := s.index.find(s.entries, si, tag); ok {
		s.QueryHits++
		s.touch(&s.sets[si], slot)
		return s.entries[slot].seq, true
	}
	s.QueryMisses++
	return 0, false
}

// Update increments and returns the sequence number for a line being
// *written back* (paper equation 4: SeqNo_i += 1 before forming the seed).
// On a miss it returns hit=false and the caller applies the policy. wrapped
// reports that the 16-bit counter overflowed back to zero: the (address,
// seq) seed space for the line is exhausted and reusing it would reuse a
// one-time pad, so the caller must re-key — the OTP scheme charges a direct
// re-encryption of the covered line (Section 3.4.2's remedy).
func (s *SNC) Update(lineVA uint64) (seq uint16, hit, wrapped bool) {
	si, tag := s.locate(lineVA)
	if slot, ok := s.index.find(s.entries, si, tag); ok {
		s.UpdateHits++
		e := &s.entries[slot]
		if e.seq == math.MaxUint16 {
			s.SeqOverflows++
			wrapped = true
		}
		e.seq++
		s.touch(&s.sets[si], slot)
		return e.seq, true, wrapped
	}
	s.UpdateMisses++
	return 0, false, false
}

// Install places a (line, seq) pair fetched from memory into the SNC,
// evicting the LRU victim if the set is full. It returns the victim so the
// caller can spill it (Algorithm 1 lines 11-12 / 24-25). Install is used by
// the LRU policy.
func (s *SNC) Install(lineVA uint64, seq uint16) (victimVA uint64, victimSeq uint16, evicted bool) {
	si, tag := s.locate(lineVA)
	st := &s.sets[si]
	if slot, ok := s.index.find(s.entries, si, tag); ok {
		// Already present (e.g. installed by a racing path): refresh.
		s.entries[slot].seq = seq
		s.touch(st, slot)
		return 0, 0, false
	}
	slot := s.alloc(si)
	if slot >= 0 {
		s.occupied++
	} else {
		// Evict the set's LRU entry.
		slot = st.tail
		victim := &s.entries[slot]
		victimVA, victimSeq, evicted = victim.tag<<s.lineShift, victim.seq, true
		s.index.del(s.entries, si, victim.tag)
		s.unlink(st, slot)
	}
	s.entries[slot] = entry{tag: tag, seq: seq, prev: -1, next: -1}
	s.index.put(s.entries, si, slot)
	s.pushFront(st, slot)
	return victimVA, victimSeq, evicted
}

// TryInstall installs only if the line's set has a vacancy; it never evicts.
// It returns false when the SNC cannot accept the entry (NoReplacement
// policy, Section 4.1: "when SNC is full ... they should be encrypted
// directly").
func (s *SNC) TryInstall(lineVA uint64, seq uint16) bool {
	si, tag := s.locate(lineVA)
	st := &s.sets[si]
	if slot, ok := s.index.find(s.entries, si, tag); ok {
		s.entries[slot].seq = seq
		s.touch(st, slot)
		return true
	}
	if slot := s.alloc(si); slot >= 0 {
		s.occupied++
		s.entries[slot] = entry{tag: tag, seq: seq, prev: -1, next: -1}
		s.index.put(s.entries, si, slot)
		s.pushFront(st, slot)
		return true
	}
	return false
}

// Peek returns the stored sequence number without touching LRU state or
// statistics (used by speculative pad-precompute schemes to read the value
// their prediction must track).
func (s *SNC) Peek(lineVA uint64) (seq uint16, ok bool) {
	si, tag := s.locate(lineVA)
	slot, ok := s.index.find(s.entries, si, tag)
	if !ok {
		return 0, false
	}
	return s.entries[slot].seq, true
}

// Contains reports presence without touching LRU state or stats.
func (s *SNC) Contains(lineVA uint64) bool {
	si, tag := s.locate(lineVA)
	_, ok := s.index.find(s.entries, si, tag)
	return ok
}

// Occupied returns the number of valid entries.
func (s *SNC) Occupied() int { return s.occupied }

// FlushAll invalidates every entry, returning the (lineVA, seq) pairs that
// were held. Used on context switches when the SNC is flushed to memory
// with encryption (Section 4.3 option 1). The returned slice is a scratch
// buffer owned by the SNC, valid only until the next FlushAll call.
func (s *SNC) FlushAll() (spilled [][2]uint64) {
	spilled = s.flushScratch[:0]
	for si := range s.sets {
		st := &s.sets[si]
		for slot := st.head; slot >= 0; slot = s.entries[slot].next {
			e := &s.entries[slot]
			spilled = append(spilled, [2]uint64{e.tag << s.lineShift, uint64(e.seq)}) //secsim:allowalloc flushScratch reuse; stable once the largest flush has been seen
		}
		s.resetSet(si)
	}
	s.occupied = 0
	s.flushScratch = spilled
	return spilled
}

// ResetStats clears counters but keeps contents.
func (s *SNC) ResetStats() {
	s.QueryHits, s.QueryMisses, s.UpdateHits, s.UpdateMisses = 0, 0, 0, 0
	s.SeqOverflows = 0
}

// Restore copies the state of src, an SNC with the same configuration,
// into s: contents, recency, tag index and counters. s keeps its own arrays
// and scratch buffer, so a restore allocates nothing.
func (s *SNC) Restore(src *SNC) {
	entries, sets, slots, scratch := s.entries, s.sets, s.index.slots, s.flushScratch
	*s = *src
	s.entries, s.sets, s.index.slots, s.flushScratch = entries, sets, slots, scratch
	copy(entries, src.entries)
	copy(sets, src.sets)
	copy(slots, src.index.slots)
}
