package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"unsafe"

	"secureproc/internal/cache"
	"secureproc/internal/workload"
)

// This file records a phase's cache outcomes once and replays them under
// any scheme. A record's walk has two halves: lookup touches only L1I, L1D
// and L2 and yields the record's outcome bits, and retire turns the bits
// into core and scheme calls. No scheme and no timing can change what the
// caches hold (core.Resources never hands a scheme a cache), so for one
// record stream, one cache geometry and one cache start state, the lookup
// half yields the same outcomes under every scheme and crypto setting —
// the one-pass idea of Mattson et al., "Evaluation Techniques for Storage
// Hierarchies" (IBM Systems Journal, 1970). A replay runs only the retire
// half over recorded outcomes and then installs the recorded end state of
// the caches, so it leaves the System exactly where a direct run would
// have. Two phases use it: the warmup prefix, which always starts from
// empty caches, and the measured phase that follows it.
//
// retire is the one loop for all three paths: Step runs it over one
// record, record over a whole phase after its lookup pass, and replay over
// recorded outcomes. A record that hits in L1 or L2 without a
// write-allocate fill calls no scheme and retires inside the loop with one
// inlined core call; only the records that call the scheme (L2 misses,
// instruction fetch misses and write-allocate fills) call out to apply.
// The hit arms cannot move into a helper, since no helper holding them
// fits the inliner's budget (see retire).

// Outcomes is one recorded phase: copies of the caches at its start, one
// outcome byte per record, the victim and fill line addresses the retire
// half needs, and copies of the caches at its end. It is immutable once
// returned, so any number of systems may replay it concurrently.
type Outcomes struct {
	start [3]*cache.Cache // L1I, L1D, L2
	end   [3]*cache.Cache
	ops   []uint8
	// addrs holds the line addresses retire consumes, in order; a record
	// owns as many as its outcome bits name.
	addrs []uint64
}

// Bytes reports the heap bytes the recording holds: its outcome bytes,
// line addresses and cache copies. It allocates nothing.
func (o *Outcomes) Bytes() int {
	n := int(unsafe.Sizeof(*o)) + cap(o.ops) + 8*cap(o.addrs)
	for i := range o.start {
		n += o.start[i].Bytes() + o.end[i].Bytes()
	}
	return n
}

// errNoRecording refuses a replay of nil outcomes.
var errNoRecording = errors.New("sim: replay refused: no recording")

// caches returns the system's three caches in Outcomes order.
func (s *System) caches() [3]*cache.Cache { return [3]*cache.Cache{s.l1i, s.l1d, s.l2} }

// copyCaches returns copies of the system's three caches in Outcomes order.
func (s *System) copyCaches() (cp [3]*cache.Cache) {
	for i, c := range s.caches() {
		cp[i] = cache.New(c.Config())
		cp[i].Restore(c)
	}
	return cp
}

// RunWarmupRecord is RunWarmup over recs that also records the warmup's
// cache outcomes for RunWarmupReplay. The system's final state is that of
// RunWarmup(workload.Replay(recs)). Recording allocates; it runs once per
// record stream and cache geometry.
func (s *System) RunWarmupRecord(recs []workload.Record) *Outcomes {
	return s.record(recs)
}

// RunWarmupReplay runs the warmup over recs from recorded outcomes: the
// core and scheme calls of every record, without the cache lookups, then
// the recorded end state of the caches. It leaves the system where
// RunWarmup(workload.Replay(recs)) would. It takes the same recs and
// applies the same guard as RunMeasuredReplay, and refuses with an error,
// changing nothing, on a mismatch.
//
//secsim:hotpath
func (s *System) RunWarmupReplay(recs []workload.Record, o *Outcomes) error {
	if err := s.guard(recs, o); err != nil {
		return err
	}
	s.replay(recs, o)
	return nil
}

// RunMeasuredRecord is RunMeasured over recs that also records the
// measured phase's cache outcomes for RunMeasuredReplay. The Result and the
// system's final state are those of RunMeasured(workload.Replay(recs)).
// Recording allocates; it runs once per record stream and cache geometry.
func (s *System) RunMeasuredRecord(recs []workload.Record) (Result, *Outcomes) {
	s.BeginMeasurement()
	o := s.record(recs)
	return s.result(), o
}

// RunMeasuredReplay runs the measured phase over recs from recorded
// outcomes: the core and scheme calls of every record, without the cache
// lookups, then the recorded end state of the caches. It returns the Result
// that RunMeasured(workload.Replay(recs)) would and leaves the system in
// the same state. recs must be the records the outcomes were recorded over;
// the caller's key guarantees that (the check below covers only their
// count). It refuses with an error, and changes nothing, unless the
// recording was made with this system's cache configurations, over as many
// records, from the cache contents and LRU clocks the system holds now.
//
//secsim:hotpath
func (s *System) RunMeasuredReplay(recs []workload.Record, o *Outcomes) (Result, error) {
	if err := s.guard(recs, o); err != nil {
		return Result{}, err
	}
	s.BeginMeasurement()
	s.replay(recs, o)
	return s.result(), nil
}

// record runs recs through lookup, recording each outcome and the
// caches' end state, then retires them and drains the core. The lookup
// pass touches only the caches and retire only the core and the scheme,
// so running them one after the other is exact.
func (s *System) record(recs []workload.Record) *Outcomes {
	o := &Outcomes{start: s.copyCaches(), ops: make([]uint8, len(recs))}
	var addrs []uint64
	for i, rec := range recs {
		op := s.lookup(rec)
		o.ops[i] = op
		addrs = append(addrs, s.la[:bits.OnesCount8(op&(oVictim|oWBFill|oWBVictim))]...)
	}
	o.addrs = slices.Clone(addrs)
	o.end = s.copyCaches()
	s.retire(recs, o.ops, o.addrs)
	s.cpu.Drain()
	return o
}

// guard refuses a replay of o over recs unless the recording was made with
// this system's cache configurations, over as many records, from the cache
// contents and LRU clocks the system holds now.
//
//secsim:hotpath
func (s *System) guard(recs []workload.Record, o *Outcomes) error {
	if o == nil {
		return errNoRecording
	}
	if len(recs) != len(o.ops) {
		return fmt.Errorf("sim: replay refused: %d records, recording has %d", len(recs), len(o.ops)) //secsim:allowalloc cold refusal branch
	}
	for i, c := range s.caches() {
		switch {
		case o.start[i].Config() != c.Config():
			return fmt.Errorf("sim: replay refused: recorded %s cache configs %+v differ from the system's", c.Config().Name, o.start[i].Config()) //secsim:allowalloc cold refusal branch
		case !c.Holds(o.start[i]):
			return fmt.Errorf("sim: replay refused: %s state differs from the recording's start", c.Config().Name) //secsim:allowalloc cold refusal branch
		}
	}
	return nil
}

// replay retires every record of recs from o, drains the core and
// installs o's end state of the caches.
//
//secsim:hotpath
func (s *System) replay(recs []workload.Record, o *Outcomes) {
	s.retire(recs, o.ops, o.addrs)
	s.cpu.Drain()
	for i, c := range s.caches() {
		c.Restore(o.end[i])
	}
}
