package sim

import (
	"fmt"
	"unsafe"

	"secureproc/internal/workload"
)

// TimingModelVersion identifies the timing model for persisted results.
// Stored sim.Results are keyed by this string: bump it whenever a change
// alters any Result the simulator can produce (component timing, scheme
// behaviour, workload generation, measurement protocol — anything that moves
// a golden file), so stale entries in a warm-start store become misses
// instead of wrong answers. Adding new output fields that are zero for old
// configurations does not require a bump; changing existing numbers does.
//
// tm-2: Result gained SeqOverflows, nonzero for existing OTP configurations
// — entries stored under tm-1 would silently report it as zero.
const TimingModelVersion = "secsim-tm-2"

// Checkpoint is an architectural snapshot of a System at the
// warmup/measurement boundary, in the SMARTS checkpointing sense (Wunderlich
// et al., ISCA 2003): the full microarchitectural state (cache contents and
// LRU recency, SNC contents, recency and tag index, write buffer, bus and
// crypto-pipeline reservations, core clock and in-flight misses,
// scheme-internal tables). It is a System of the same configuration that
// never runs, holding copies of the source's components, so any number of
// measurement runs can fork from it. A checkpoint shares no mutable state
// with the system it came from or with systems restored from it.
type Checkpoint System

// Checkpoint captures the system's architectural state. Every scheme can be
// checkpointed, so ok is true unless the configuration no longer builds,
// which cannot happen for a configuration s was built from.
func (s *System) Checkpoint() (*Checkpoint, bool) {
	cp, err := New(s.cfg)
	if err != nil {
		return nil, false
	}
	cp.copyFrom(s)
	return (*Checkpoint)(cp), true
}

// Bytes reports the heap bytes the checkpoint holds: the System itself,
// its caches and, where the scheme reports them, the scheme's tables. The
// core, bus, write buffer and crypto pipeline are a few hundred bytes and
// are left out. It allocates nothing.
func (cp *Checkpoint) Bytes() int {
	s := (*System)(cp)
	n := int(unsafe.Sizeof(*s))
	for _, c := range s.caches() {
		n += c.Bytes()
	}
	if s.sized != nil {
		n += s.sized.Bytes()
	}
	return n
}

// Restore reinstates a checkpoint into this system. The system must have
// been built from the same configuration the checkpoint was taken under;
// restoring reuses the system's existing allocations, so a settled system
// stays allocation-free through restore-and-run cycles.
func (s *System) Restore(cp *Checkpoint) error {
	if s.cfg != cp.cfg {
		return fmt.Errorf("sim: checkpoint config mismatch (%s vs %s)",
			cp.cfg.Scheme.Canonical(), s.cfg.Scheme.Canonical())
	}
	s.copyFrom((*System)(cp))
	return nil
}

// copyFrom copies the architectural state of src, a system of the same
// configuration, into s, component by component. Scratch state (the
// lookup's line addresses, context-switch buffers) and the measurement
// snapshot, which BeginMeasurement retakes, are not copied.
func (s *System) copyFrom(src *System) {
	s.scheme.Restore(src.scheme)
	s.cpu.Restore(src.cpu)
	s.l1i.Restore(src.l1i)
	s.l1d.Restore(src.l1d)
	s.l2.Restore(src.l2)
	*s.bus = *src.bus
	s.wbuf.Restore(src.wbuf)
	s.crypto.Restore(src.crypto)
}

// RunWarmup consumes a warmup-prefix stream and settles the machine at the
// measurement boundary (outstanding misses drained), leaving it ready to be
// checkpointed or to continue into RunMeasured. Together,
//
//	sys.RunWarmup(Replay(recs[:warm]))
//	res := sys.RunMeasured(Replay(recs[warm:]))
//
// is event-for-event identical to sys.Run(Replay(recs), warm): Run drains
// and snapshots at the n == warmupRecords boundary exactly as the split does
// (including the degenerate warm == 0 and empty-measurement cases).
func (s *System) RunWarmup(stream workload.Stream) {
	for {
		rec, ok := stream.Next()
		if !ok {
			break
		}
		s.Step(rec)
	}
	s.cpu.Drain()
}

// RunMeasured starts measurement (statistics restart; architectural state —
// warmed or restored from a checkpoint — is kept), consumes the stream to
// exhaustion and returns the result.
func (s *System) RunMeasured(stream workload.Stream) Result {
	s.BeginMeasurement()
	for {
		rec, ok := stream.Next()
		if !ok {
			break
		}
		s.Step(rec)
	}
	s.cpu.Drain()
	return s.result()
}
