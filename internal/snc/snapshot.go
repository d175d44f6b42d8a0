package snc

// setSnapshot carries the per-set LRU endpoints and bump-allocator cursor.
// The tag index is deliberately not captured: every slot in [base, base+bump)
// holds a live entry (slots are handed out by a bump allocator and eviction
// reuses the victim slot in place, so allocated slots are never individually
// freed), which means the index is exactly {entry.tag -> slot} over the
// allocated range and can be rebuilt on Restore. Probe-chain layout after a
// rebuild may differ from the original, but find/put/del behave identically
// for the same key set and no timing depends on probe length.
type setSnapshot struct {
	head, tail int32
	bump       int32
}

// Snapshot is an opaque deep copy of the SNC's mutable state, taken with
// Snapshot and reinstated with Restore. It shares nothing with the SNC it
// came from, so one snapshot can seed any number of forked runs.
type Snapshot struct {
	entries  []entry
	sets     []setSnapshot
	occupied int

	queryHits    uint64
	queryMisses  uint64
	updateHits   uint64
	updateMisses uint64
	seqOverflows uint64
}

// Snapshot captures the SNC's full mutable state.
func (s *SNC) Snapshot() *Snapshot {
	snap := &Snapshot{
		entries:      make([]entry, len(s.entries)),
		sets:         make([]setSnapshot, len(s.sets)),
		occupied:     s.occupied,
		queryHits:    s.QueryHits,
		queryMisses:  s.QueryMisses,
		updateHits:   s.UpdateHits,
		updateMisses: s.UpdateMisses,
		seqOverflows: s.SeqOverflows,
	}
	copy(snap.entries, s.entries)
	for i := range s.sets {
		st := &s.sets[i]
		snap.sets[i] = setSnapshot{head: st.head, tail: st.tail, bump: st.bump}
	}
	return snap
}

// Restore reinstates a snapshot taken from an SNC with the same
// configuration (entry and set counts are configuration-derived). Each set's
// tag index is rebuilt from the restored entries.
func (s *SNC) Restore(snap *Snapshot) {
	copy(s.entries, snap.entries)
	s.occupied = snap.occupied
	s.QueryHits = snap.queryHits
	s.QueryMisses = snap.queryMisses
	s.UpdateHits = snap.updateHits
	s.UpdateMisses = snap.updateMisses
	s.SeqOverflows = snap.seqOverflows
	for i := range s.sets {
		st := &s.sets[i]
		ss := snap.sets[i]
		st.head, st.tail, st.bump = ss.head, ss.tail, ss.bump
		st.index.init(int(s.ways))
		for slot := st.base; slot < st.base+st.bump; slot++ {
			st.index.put(s.entries[slot].tag, slot)
		}
	}
}
