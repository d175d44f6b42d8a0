package snc

import (
	"math/rand"
	"testing"
)

// refSNC is a deliberately naive reference implementation of the SNC's
// policy-neutral storage: a plain map plus an explicit recency counter,
// exactly the semantics the open-addressed tagIndex/intrusive-LRU fast
// path must reproduce. Victim selection scans for the smallest recency —
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

// TestOpenAddressedMatchesMapReference drives the real SNC and the map
// reference through long random operation traces over several geometries
// and demands identical hit/miss/evict/victim sequences at every step —
// the property that makes the open-addressed rewrite timing-model-neutral.
// Every 50K operations the trace moves to a fresh SNC restored from the
// live one, so a copied index out of step with its entries (after the
// backward-shift deletions of the evictions so far) fails here too.
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
