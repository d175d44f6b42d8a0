package snc

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// refSNC is a deliberately naive reference implementation of the SNC's
// policy-neutral storage: a plain map plus an explicit recency counter,
// exactly the semantics the open-addressed tagIndex/recency-ring fast path
// must reproduce. Victim selection scans for the smallest recency —
// O(n), but obviously correct.
type refSNC struct {
	cfg       Config
	ways      int
	lineShift uint
	setMask   uint64
	sets      []map[uint64]*refEntry
	clock     uint64
}

type refEntry struct {
	seq  uint16
	used uint64
}

func newRefSNC(cfg Config) *refSNC {
	entries := cfg.Entries()
	ways := cfg.Ways
	if ways == 0 {
		ways = entries
	}
	nsets := entries / ways
	r := &refSNC{cfg: cfg, ways: ways, setMask: uint64(nsets - 1)}
	for shift := uint(0); ; shift++ {
		if 1<<shift == cfg.LineBytes {
			r.lineShift = shift
			break
		}
	}
	r.sets = make([]map[uint64]*refEntry, nsets)
	for i := range r.sets {
		r.sets[i] = make(map[uint64]*refEntry)
	}
	return r
}

func (r *refSNC) locate(lineVA uint64) (map[uint64]*refEntry, uint64) {
	lineNum := lineVA >> r.lineShift
	return r.sets[lineNum&r.setMask], lineNum
}

func (r *refSNC) query(lineVA uint64) (uint16, bool) {
	set, tag := r.locate(lineVA)
	if e, ok := set[tag]; ok {
		r.clock++
		e.used = r.clock
		return e.seq, true
	}
	return 0, false
}

func (r *refSNC) update(lineVA uint64) (uint16, bool, bool) {
	set, tag := r.locate(lineVA)
	e, ok := set[tag]
	if !ok {
		return 0, false, false
	}
	wrapped := e.seq == 0xFFFF
	e.seq++
	r.clock++
	e.used = r.clock
	return e.seq, true, wrapped
}

func (r *refSNC) install(lineVA uint64, seq uint16) (uint64, uint16, bool) {
	set, tag := r.locate(lineVA)
	r.clock++
	if e, ok := set[tag]; ok {
		e.seq = seq
		e.used = r.clock
		return 0, 0, false
	}
	var victimVA uint64
	var victimSeq uint16
	evicted := false
	if len(set) >= r.ways {
		var lruTag uint64
		var lru *refEntry
		for t, e := range set {
			if lru == nil || e.used < lru.used {
				lruTag, lru = t, e
			}
		}
		victimVA, victimSeq, evicted = lruTag<<r.lineShift, lru.seq, true
		delete(set, lruTag)
	}
	set[tag] = &refEntry{seq: seq, used: r.clock}
	return victimVA, victimSeq, evicted
}

func (r *refSNC) tryInstall(lineVA uint64, seq uint16) bool {
	set, tag := r.locate(lineVA)
	r.clock++
	if e, ok := set[tag]; ok {
		e.seq = seq
		e.used = r.clock
		return true
	}
	if len(set) >= r.ways {
		return false
	}
	set[tag] = &refEntry{seq: seq, used: r.clock}
	return true
}

// refPair is one reference entry as a ring walk sees it.
type refPair struct {
	tag uint64
	seq uint16
}

// recency returns set si's entries newest first.
func (r *refSNC) recency(si int) []refPair {
	type aged struct {
		refPair
		used uint64
	}
	all := make([]aged, 0, len(r.sets[si]))
	for tag, e := range r.sets[si] {
		all = append(all, aged{refPair{tag, e.seq}, e.used})
	}
	slices.SortFunc(all, func(a, b aged) int { return cmp.Compare(b.used, a.used) })
	pairs := make([]refPair, len(all))
	for i, a := range all {
		pairs[i] = a.refPair
	}
	return pairs
}

// flushAll empties the reference, returning its (lineVA, seq) pairs set by
// set, each set newest first.
func (r *refSNC) flushAll() [][2]uint64 {
	var spilled [][2]uint64
	for si := range r.sets {
		for _, p := range r.recency(si) {
			spilled = append(spilled, [2]uint64{p.tag << r.lineShift, uint64(p.seq)})
		}
		clear(r.sets[si])
	}
	return spilled
}

// checkRing walks every set's recency ring from its head and checks that
// the walk visits exactly the set's n live slots [si*ways, si*ways+n),
// each once, and closes back at the head; that every visited slot's prev
// and next link back to it; that the index finds each visited slot under
// its own tag and holds no other slot; and that the walk meets ref's
// entries of the set in its recency order, newest first.
func checkRing(t testing.TB, s *SNC, ref *refSNC) {
	t.Helper()
	seen := make([]bool, s.ways)
	for si, st := range s.sets {
		base := int32(si) * s.ways
		want := ref.recency(si)
		if st.n < 0 || st.n > s.ways || int(st.n) != len(want) {
			t.Fatalf("set %d: %d live slots in a %d-way set, ref holds %d", si, st.n, s.ways, len(want))
		}
		clear(seen)
		slot := st.head
		for i := range st.n {
			if slot < base || slot >= base+st.n || seen[slot-base] {
				t.Fatalf("set %d: step %d of the ring walk reaches slot %d, outside [%d, %d) or seen before",
					si, i, slot, base, base+st.n)
			}
			seen[slot-base] = true
			e := s.entries[slot]
			if s.entries[e.next].prev != slot || s.entries[e.prev].next != slot {
				t.Fatalf("set %d slot %d: prev %d and next %d do not link back to it", si, slot, e.prev, e.next)
			}
			if got, ok := s.index.find(s.entries, si, e.tag); !ok || got != slot {
				t.Fatalf("set %d slot %d: index finds tag %#x at (%d, %v)", si, slot, e.tag, got, ok)
			}
			if w := want[i]; e.tag != w.tag || e.seq != w.seq {
				t.Fatalf("set %d: entry %d from MRU is (%#x, %d), ref (%#x, %d)", si, i, e.tag, e.seq, w.tag, w.seq)
			}
			slot = e.next
		}
		if st.n > 0 && slot != st.head {
			t.Fatalf("set %d: the ring walk ends at slot %d, not back at head %d", si, slot, st.head)
		}
		indexed := 0
		for _, c := range s.index.cells(si) {
			if c >= 0 {
				indexed++
			}
		}
		if indexed != int(st.n) {
			t.Fatalf("set %d: index holds %d slots for %d live entries", si, indexed, st.n)
		}
	}
}

// TestOpenAddressedMatchesMapReference drives the real SNC and the map
// reference through long random operation traces over several geometries
// and demands identical hit/miss/evict/victim sequences at every step —
// the property that makes the open-addressed rewrite timing-model-neutral.
// Every 50K operations the trace moves to a fresh SNC restored from the
// live one, so a copied index out of step with its entries (after the
// backward-shift deletions of the evictions so far) fails here too. Every
// 1,000 operations, and at the end, checkRing walks every set's ring
// against the reference's recency order.
func TestOpenAddressedMatchesMapReference(t *testing.T) {
	configs := []Config{
		{SizeBytes: 1 << 10, EntryBytes: 2, Ways: 0, LineBytes: 128, Policy: LRU},
		{SizeBytes: 1 << 10, EntryBytes: 2, Ways: 1, LineBytes: 128, Policy: LRU},
		{SizeBytes: 1 << 10, EntryBytes: 2, Ways: 2, LineBytes: 128, Policy: LRU},
		{SizeBytes: 1 << 10, EntryBytes: 2, Ways: 4, LineBytes: 128, Policy: LRU},
		{SizeBytes: 2 << 10, EntryBytes: 2, Ways: 32, LineBytes: 128, Policy: NoReplacement},
		{SizeBytes: 4 << 10, EntryBytes: 2, Ways: 8, LineBytes: 64, Policy: LRU, PIDBits: 4},
	}
	for ci, cfg := range configs {
		rng := rand.New(rand.NewSource(int64(1000 + ci)))
		s := New(cfg)
		ref := newRefSNC(cfg)
		// Address pool larger than capacity so evictions are constant; a
		// hot subset so hits are too.
		pool := make([]uint64, cfg.Entries()*3+7)
		for i := range pool {
			pool[i] = uint64(rng.Intn(1<<20)) * uint64(cfg.LineBytes)
		}
		for op := 0; op < 200000; op++ {
			if op%50000 == 25000 {
				fresh := New(cfg)
				fresh.Restore(s)
				s = fresh
			}
			va := pool[rng.Intn(len(pool))]
			switch rng.Intn(10) {
			case 0, 1, 2: // query
				gs, gh := s.Query(va)
				ws, wh := ref.query(va)
				if gs != ws || gh != wh {
					t.Fatalf("cfg %d op %d: Query(%#x) = (%d,%v), ref (%d,%v)", ci, op, va, gs, gh, ws, wh)
				}
			case 3, 4, 5: // update
				gs, gh, gw := s.Update(va)
				ws, wh, ww := ref.update(va)
				if gs != ws || gh != wh || gw != ww {
					t.Fatalf("cfg %d op %d: Update(%#x) = (%d,%v,%v), ref (%d,%v,%v)", ci, op, va, gs, gh, gw, ws, wh, ww)
				}
			case 6, 7, 8: // install
				seq := uint16(rng.Intn(0x10000))
				gva, gseq, gev := s.Install(va, seq)
				wva, wseq, wev := ref.install(va, seq)
				if gva != wva || gseq != wseq || gev != wev {
					t.Fatalf("cfg %d op %d: Install(%#x,%d) = (%#x,%d,%v), ref (%#x,%d,%v)",
						ci, op, va, seq, gva, gseq, gev, wva, wseq, wev)
				}
			default: // tryInstall
				seq := uint16(rng.Intn(0x10000))
				got := s.TryInstall(va, seq)
				want := ref.tryInstall(va, seq)
				if got != want {
					t.Fatalf("cfg %d op %d: TryInstall(%#x,%d) = %v, ref %v", ci, op, va, seq, got, want)
				}
			}
			if op%1000 == 999 {
				checkRing(t, s, ref)
			}
			// Spot-check read-only views stay in lockstep.
			if op%997 == 0 {
				probe := pool[rng.Intn(len(pool))]
				gs, gok := s.Peek(probe)
				set, tag := ref.locate(probe)
				var ws uint16
				e, wok := set[tag]
				if wok {
					ws = e.seq
				}
				if gok != wok || (gok && gs != ws) {
					t.Fatalf("cfg %d op %d: Peek(%#x) = (%d,%v), ref (%d,%v)", ci, op, probe, gs, gok, ws, wok)
				}
				if s.Contains(probe) != wok {
					t.Fatalf("cfg %d op %d: Contains(%#x) = %v, ref %v", ci, op, probe, s.Contains(probe), wok)
				}
			}
		}
		checkRing(t, s, ref)
		// Occupancy must agree at the end.
		refOcc := 0
		for _, set := range ref.sets {
			refOcc += len(set)
		}
		if s.Occupied() != refOcc {
			t.Fatalf("cfg %d: occupied %d, ref %d", ci, s.Occupied(), refOcc)
		}
	}
}

// TestFlushAllMatchesReferenceAfterRefill locks FlushAll's contract under
// the open-addressed index: everything flushed is refindable nowhere, the
// flushed set is exactly the occupied set, and the SNC accepts a full
// refill afterwards.
func TestFlushAllMatchesReferenceAfterRefill(t *testing.T) {
	cfg := Config{SizeBytes: 1 << 10, EntryBytes: 2, Ways: 8, LineBytes: 128, Policy: LRU}
	s := New(cfg)
	rng := rand.New(rand.NewSource(7))
	want := make(map[uint64]uint16)
	for i := 0; i < 4*cfg.Entries(); i++ {
		va := uint64(rng.Intn(1<<16)) * 128
		seq := uint16(rng.Intn(0x10000))
		victimVA, victimSeq, evicted := s.Install(va, seq)
		want[va] = seq
		if evicted {
			if got, stored := want[victimVA]; !stored || got != victimSeq {
				t.Fatalf("evicted (%#x,%d) never installed with that value", victimVA, victimSeq)
			}
			delete(want, victimVA)
		}
	}
	spilled := s.FlushAll()
	if len(spilled) != len(want) {
		t.Fatalf("flushed %d entries, want %d", len(spilled), len(want))
	}
	for _, pair := range spilled {
		if want[pair[0]] != uint16(pair[1]) {
			t.Errorf("flushed (%#x,%d), want seq %d", pair[0], pair[1], want[pair[0]])
		}
		if s.Contains(pair[0]) {
			t.Errorf("%#x still present after flush", pair[0])
		}
	}
	if s.Occupied() != 0 {
		t.Fatalf("occupied %d after flush", s.Occupied())
	}
	// Consecutive lines stripe across the sets, filling each to its ways.
	for i := 0; i < cfg.Entries(); i++ {
		if !s.TryInstall(uint64(i)*128, 1) {
			t.Fatalf("refill rejected at %d of %d", i, cfg.Entries())
		}
	}
}

// fuzzGeometries are the 16-entry SNCs FuzzSNCMatchesReference runs on:
// 1-, 2- and 8-way and fully associative, under both policies.
var fuzzGeometries = func() []Config {
	var cfgs []Config
	for _, policy := range []Policy{LRU, NoReplacement} {
		for _, ways := range []int{1, 2, 8, 0} {
			cfgs = append(cfgs, Config{SizeBytes: 32, EntryBytes: 2, Ways: ways, LineBytes: 128, Policy: policy})
		}
	}
	return cfgs
}()

// FuzzSNCMatchesReference decodes its input into an operation trace and
// runs it on the SNC and on refSNC side by side. The first byte picks a
// geometry from fuzzGeometries; every following 3 bytes are an operation
// (byte 0 mod 6: Query, Update, Install, TryInstall, FlushAll, or a restore
// into a fresh SNC), a line among 32 (byte 1) and a sequence number (byte
// 2, doubled so 255 gives 0xFFFF and the next Update wraps). Every result
// must equal the reference's, FlushAll's pairs in the reference's recency
// order, and checkRing must pass after every operation: flushes and
// restores interleaved with installs are what the seeded trace of
// TestOpenAddressedMatchesMapReference never does.
func FuzzSNCMatchesReference(f *testing.F) {
	f.Add([]byte{0, 2, 1, 255, 1, 1, 0, 1, 1, 0, 4, 0, 0, 2, 1, 7})
	// Per geometry: installs, hits and updates over 24 lines, a restore
	// after op 40 and a flush after op 80.
	for g := range fuzzGeometries {
		rng := rand.New(rand.NewSource(int64(g)))
		seed := []byte{byte(g)}
		for i := range 120 {
			kind := [...]byte{2, 3, 0, 1}[rng.Intn(4)]
			switch i {
			case 40:
				kind = 5
			case 80:
				kind = 4
			}
			seed = append(seed, kind, byte(rng.Intn(24)), byte(rng.Intn(256)))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := fuzzGeometries[int(data[0])%len(fuzzGeometries)]
		s, ref := New(cfg), newRefSNC(cfg)
		for op, ops := 0, data[1:]; len(ops) >= 3; op, ops = op+1, ops[3:] {
			va := uint64(ops[1]%32) * uint64(cfg.LineBytes)
			seq := uint16(ops[2])<<8 | uint16(ops[2])
			switch ops[0] % 6 {
			case 0:
				gs, gh := s.Query(va)
				ws, wh := ref.query(va)
				if gs != ws || gh != wh {
					t.Fatalf("op %d: Query(%#x) = (%d,%v), ref (%d,%v)", op, va, gs, gh, ws, wh)
				}
			case 1:
				gs, gh, gw := s.Update(va)
				ws, wh, ww := ref.update(va)
				if gs != ws || gh != wh || gw != ww {
					t.Fatalf("op %d: Update(%#x) = (%d,%v,%v), ref (%d,%v,%v)", op, va, gs, gh, gw, ws, wh, ww)
				}
			case 2:
				gva, gseq, gev := s.Install(va, seq)
				wva, wseq, wev := ref.install(va, seq)
				if gva != wva || gseq != wseq || gev != wev {
					t.Fatalf("op %d: Install(%#x,%d) = (%#x,%d,%v), ref (%#x,%d,%v)", op, va, seq, gva, gseq, gev, wva, wseq, wev)
				}
			case 3:
				if got, want := s.TryInstall(va, seq), ref.tryInstall(va, seq); got != want {
					t.Fatalf("op %d: TryInstall(%#x,%d) = %v, ref %v", op, va, seq, got, want)
				}
			case 4:
				got, want := s.FlushAll(), ref.flushAll()
				if !slices.Equal(got, want) {
					t.Fatalf("op %d: FlushAll = %v, ref %v", op, got, want)
				}
			case 5:
				fresh := New(cfg)
				fresh.Restore(s)
				s = fresh
			}
			checkRing(t, s, ref)
		}
	})
}
