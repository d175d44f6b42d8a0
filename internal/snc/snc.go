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
// The SNC itself is policy-neutral storage with hit/miss and LRU mechanics
// (a per-set hash index finds a line, a per-set ring orders recency); the
// scheme logic in internal/core drives it according to Algorithm 1.
package snc

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"
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
	// Ring links within the set (indices into SNC.entries), meaningful
	// only while the slot is live. int32 keeps the entry at 24 bytes — the
	// largest SNC the experiment caps admit holds 256K entries, far inside
	// the range.
	prev, next int32
}

// set is one set's recency ring. Set si owns slots [si*ways, (si+1)*ways);
// the live ones, [si*ways, si*ways+n), are linked into a ring in MRU→LRU
// order starting at head, so the LRU entry is entries[head].prev and the
// next vacancy is si*ways+n. Slots are only freed en masse by FlushAll,
// which is what keeps the live slots a prefix. The zero set is empty.
type set struct {
	head int32 // MRU slot; meaningless while n == 0
	n    int32 // live slots
}

// SNC is the sequence number cache. Lookups are O(1) via per-set
// open-addressed hash indexes; recency is an intrusive ring per set, so
// fully associative configurations (a single 32K-way set in the paper's
// default) stay fast.
type SNC struct {
	cfg       Config
	entries   []entry
	sets      []set
	ways      int32
	setMask   uint64
	lineShift uint

	// index maps each set's tags to their entry slots: it holds exactly
	// each set's live slots [si*ways, si*ways+n) (eviction reuses the
	// victim's slot in place), keyed by the tags their entries carry.
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
	return &SNC{
		cfg:       cfg,
		entries:   make([]entry, entries),
		sets:      make([]set, nsets),
		ways:      int32(ways),
		setMask:   uint64(nsets - 1),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		index:     newTagIndex(nsets, ways),
	}
}

// linkBefore links slot into at's ring just before at. With at the head,
// that is the ring's LRU end, so moving the head to slot then makes it MRU.
func (s *SNC) linkBefore(at, slot int32) {
	a, e := &s.entries[at], &s.entries[slot]
	e.prev, e.next = a.prev, at
	s.entries[a.prev].next = slot
	a.prev = slot
}

// touch makes slot, a live entry of st, its MRU: it unlinks slot, links it
// in just before the head and moves the head to it. The LRU entry already
// sits just before the head, so touching it only turns the ring.
func (s *SNC) touch(st *set, slot int32) {
	if slot == st.head {
		return
	}
	if e := &s.entries[slot]; slot != s.entries[st.head].prev {
		s.entries[e.prev].next, s.entries[e.next].prev = e.next, e.prev
		s.linkBefore(st.head, slot)
	}
	st.head = slot
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
	victim, evicted, _ := s.fill(lineVA, seq, true)
	if !evicted {
		return 0, 0, false
	}
	return victim.tag << s.lineShift, victim.seq, true
}

// TryInstall installs only if the line's set has a vacancy; it never evicts.
// It returns false when the SNC cannot accept the entry (NoReplacement
// policy, Section 4.1: "when SNC is full ... they should be encrypted
// directly").
func (s *SNC) TryInstall(lineVA uint64, seq uint16) bool {
	_, _, installed := s.fill(lineVA, seq, false)
	return installed
}

// fill makes (lineVA, seq) its set's MRU entry. A line already present
// (e.g. installed by a racing path) only takes the new seq. A new line
// takes the set's next vacancy or, when the set is full and evict is set,
// the LRU slot, whose old entry comes back as victim: the ring then turns
// one step so that slot is the head. installed is false only when a full
// set may not evict.
func (s *SNC) fill(lineVA uint64, seq uint16, evict bool) (victim entry, evicted, installed bool) {
	si, tag := s.locate(lineVA)
	st := &s.sets[si]
	if slot, ok := s.index.find(s.entries, si, tag); ok {
		s.entries[slot].seq = seq
		s.touch(st, slot)
		return entry{}, false, true
	}
	var slot int32
	switch {
	case st.n < s.ways:
		slot = int32(si)*s.ways + st.n
		s.entries[slot] = entry{tag: tag, seq: seq, prev: slot, next: slot}
		if st.n > 0 {
			s.linkBefore(st.head, slot)
		}
		st.n++
	case evict:
		slot = s.entries[st.head].prev
		victim, evicted = s.entries[slot], true
		s.index.del(s.entries, si, victim.tag)
		s.entries[slot].tag, s.entries[slot].seq = tag, seq
	default:
		return entry{}, false, false
	}
	s.index.put(s.entries, si, slot)
	st.head = slot
	return victim, evicted, true
}

// Peek returns the stored sequence number without touching LRU state or
// statistics.
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
func (s *SNC) Occupied() (n int) {
	for _, st := range s.sets {
		n += int(st.n)
	}
	return n
}

// FlushAll invalidates every entry, returning the (lineVA, seq) pairs that
// were held. Used on context switches when the SNC is flushed to memory
// with encryption (Section 4.3 option 1). The returned slice is a scratch
// buffer owned by the SNC, valid only until the next FlushAll call.
func (s *SNC) FlushAll() (spilled [][2]uint64) {
	spilled = s.flushScratch[:0]
	for si := range s.sets {
		st := &s.sets[si]
		if st.n == 0 {
			continue
		}
		slot := st.head
		for range st.n {
			e := &s.entries[slot]
			spilled = append(spilled, [2]uint64{e.tag << s.lineShift, uint64(e.seq)}) //secsim:allowalloc flushScratch reuse; stable once the largest flush has been seen
			slot = e.next
		}
		*st = set{}
		s.index.clear(si)
	}
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

// Bytes reports the heap bytes the SNC holds: the struct, its entries,
// sets and tag index, and its scratch buffer. It allocates nothing.
func (s *SNC) Bytes() int {
	return int(unsafe.Sizeof(*s)) + cap(s.entries)*int(unsafe.Sizeof(entry{})) +
		cap(s.sets)*int(unsafe.Sizeof(set{})) + 4*cap(s.index.slots) + 16*cap(s.flushScratch)
}
