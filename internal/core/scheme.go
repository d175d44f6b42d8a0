// Package core implements the paper's primary contribution: one-time-pad
// (counter-mode) memory encryption with a sequence number cache, plus the
// XOM direct-encryption baseline and the insecure baseline it is evaluated
// against.
//
// A Scheme sits between the L2 cache and the memory bus (paper Figures 2
// and 4) and answers two questions for every off-chip transaction:
//
//   - ReadLine: at what cycle is a missing line usable by the pipeline?
//   - WritebackLine: when may the CPU proceed past a dirty eviction?
//
// The three schemes differ only in how much cryptographic latency lands on
// the read critical path:
//
//	baseline:  mem
//	XOM:       mem + crypto                      (serial, Figure 2)
//	OTP:       MAX(mem, crypto) + 1              (parallel, Section 3.2)
//	OTP+SNC miss (LRU):    seqfetch + decrypt, then MAX(mem, crypto) + 1
//	OTP+SNC uncovered (NoRepl): mem + crypto     (XOM fallback)
package core

import (
	"fmt"
	"math"
	"unsafe"

	"secureproc/internal/crypto/engine"
	"secureproc/internal/mem"
	"secureproc/internal/snc"
)

// Access identifies one line-granular off-chip transaction.
type Access struct {
	// Line is the line address. The paper seeds pads and indexes the SNC
	// by virtual address (Section 4) while the bus sees the physical one;
	// the simulator is trace-driven and nothing translates a record's
	// address, so one word is both and the schemes read it as the VA.
	Line uint64
	// Instr marks instruction fetches, which use constant VA-derived
	// seeds and never need the SNC (Section 3.4.1).
	Instr bool
}

// Scheme is a memory-protection state machine between L2 and memory.
type Scheme interface {
	// Name returns the figure label for this scheme.
	Name() string
	// ReadLine is called for every L2 read miss issued at cycle now; it
	// returns the cycle at which the plaintext line is available to the
	// pipeline.
	ReadLine(now uint64, a Access) (ready uint64)
	// WritebackLine is called for every dirty L2 eviction at cycle now; it
	// returns the cycle at which the CPU may proceed (usually now; later
	// only when the write buffer is full).
	WritebackLine(now uint64, a Access) (cpuFree uint64)
	// ResetStats clears counters after warmup.
	ResetStats()
	// Restore copies the scheme's own mutable state (its SNC contents and
	// tables, not the bus, write buffer and crypto unit it drives, which
	// the machine copies) from src, a scheme built from the same
	// reference, into this scheme. src is only read, so one checkpoint
	// seeds any number of restores.
	Restore(src Scheme)
}

// ContextSwitcher is an optional Scheme capability: schemes holding
// per-process security state implement it so a multiprogrammed machine can
// charge each task switch its real cost (Section 4.3). now is the cycle the
// switch happens; next is the incoming process ID. done is the cycle any
// switch-induced scheme work (e.g. an SNC flush burst) has fully drained —
// the new task may start issuing earlier, but the bus sees the traffic.
// Schemes without per-process state (baseline, XOM) simply don't implement
// it: their seeds never depend on the running process.
type ContextSwitcher interface {
	ContextSwitch(now uint64, next int) (done uint64)
}

// SwitchPolicy selects how an OTP scheme protects SNC contents across a
// task switch (the two options of Section 4.3).
type SwitchPolicy int

const (
	// SwitchFlush is option 1: every valid entry is encrypted and flushed
	// to memory at each switch; the resuming task refetches its sequence
	// numbers through query misses.
	SwitchFlush SwitchPolicy = iota
	// SwitchPID is option 2: entries carry process-ID tags and survive
	// switches. No flush traffic, but the tag bits shrink the SNC's
	// effective capacity and tasks contend for the remaining entries.
	SwitchPID
)

// String names the policy as accepted by the registry's switch= parameter.
func (p SwitchPolicy) String() string {
	switch p {
	case SwitchFlush:
		return "flush"
	case SwitchPID:
		return "pid"
	default:
		return "unknown"
	}
}

// ParseSwitchPolicy parses a switch= parameter value.
func ParseSwitchPolicy(s string) (SwitchPolicy, error) {
	switch s {
	case "flush":
		return SwitchFlush, nil
	case "pid":
		return SwitchPID, nil
	default:
		return 0, fmt.Errorf("core: unknown switch policy %q (flush, pid)", s)
	}
}

// Baseline is the insecure processor: no cryptography at all.
type Baseline struct {
	bus  *mem.Bus
	wbuf *mem.WriteBuffer
}

// NewBaseline builds the insecure baseline over the given memory system.
func NewBaseline(bus *mem.Bus, wbuf *mem.WriteBuffer) *Baseline {
	return &Baseline{bus: bus, wbuf: wbuf}
}

// Name implements Scheme.
func (b *Baseline) Name() string { return "baseline" }

// ReadLine implements Scheme: just the memory access.
//
//secsim:hotpath
func (b *Baseline) ReadLine(now uint64, a Access) uint64 {
	return b.bus.Read(now, mem.SrcLineFill)
}

// WritebackLine implements Scheme: queue in the write buffer.
//
//secsim:hotpath
func (b *Baseline) WritebackLine(now uint64, a Access) uint64 {
	return b.wbuf.Insert(now, now, b.bus, mem.SrcWriteback)
}

// ResetStats implements Scheme.
func (b *Baseline) ResetStats() {}

// Restore implements Scheme: the baseline holds no state of its own.
func (b *Baseline) Restore(Scheme) {}

// XOM models the direct-encryption architecture of [Lie et al.]: every line
// is decrypted after it arrives and encrypted before it leaves (Figure 2).
type XOM struct {
	bus    *mem.Bus
	wbuf   *mem.WriteBuffer
	crypto *engine.Engine
}

// NewXOM builds the XOM baseline over the given memory system and crypto
// unit.
func NewXOM(bus *mem.Bus, wbuf *mem.WriteBuffer, crypto *engine.Engine) *XOM {
	return &XOM{bus: bus, wbuf: wbuf, crypto: crypto}
}

// Name implements Scheme.
func (x *XOM) Name() string { return "XOM" }

// ReadLine implements Scheme: decryption starts only after the line arrives
// — the serial critical path the paper attacks.
//
//secsim:hotpath
func (x *XOM) ReadLine(now uint64, a Access) uint64 {
	arrival := x.bus.Read(now, mem.SrcLineFill)
	return x.crypto.Issue(arrival)
}

// WritebackLine implements Scheme: encryption happens while the line sits in
// the write buffer (Section 2.2), so only buffer pressure stalls the CPU.
//
//secsim:hotpath
func (x *XOM) WritebackLine(now uint64, a Access) uint64 {
	ready := x.crypto.Issue(now)
	return x.wbuf.Insert(now, ready, x.bus, mem.SrcWriteback)
}

// ResetStats implements Scheme.
func (x *XOM) ResetStats() {}

// Restore implements Scheme: XOM holds no state of its own.
func (x *XOM) Restore(Scheme) {}

// OTP is the paper's scheme: pads are computed from address-derived seeds in
// parallel with the memory access; data lines carry per-line sequence
// numbers cached in the SNC.
type OTP struct {
	bus    *mem.Bus
	wbuf   *mem.WriteBuffer
	crypto *engine.Engine
	snc    *snc.SNC
	policy snc.Policy

	// switchPolicy selects the Section 4.3 context-switch option; pid is
	// the currently running process (0 until the first switch, so
	// single-program runs are untouched); pidBits is the tag width the
	// SwitchPID hardware can distinguish.
	switchPolicy SwitchPolicy
	pid          int
	pidBits      int

	// seqMem is the architectural sequence-number table in (encrypted)
	// memory used by the LRU policy for spilled entries. It is the
	// functional mirror of what the timing model charges traffic for,
	// keyed by process-tagged virtual line address.
	seqMem *seqTable
}

// pidTagShift places the process ID above every virtual line address the
// workloads generate; SNC keys and seqMem keys both carry the tag so that
// identical VAs from different address spaces never alias.
const pidTagShift = 48

// tagged composes the SNC/seqMem key for a virtual line address under the
// current process. With pid 0 (single-program operation) the key is the VA
// itself.
func (o *OTP) tagged(va uint64) uint64 {
	return va | uint64(o.pid)<<pidTagShift
}

// NewOTP builds the one-time-pad scheme. The SNC's configured policy
// selects LRU vs no-replacement behaviour.
func NewOTP(bus *mem.Bus, wbuf *mem.WriteBuffer, crypto *engine.Engine, s *snc.SNC) *OTP {
	return &OTP{
		bus:     bus,
		wbuf:    wbuf,
		crypto:  crypto,
		snc:     s,
		policy:  s.Config().Policy,
		pidBits: 16, // registry construction narrows this for switch=pid
		seqMem:  newSeqTable(s.Config().LineBytes),
	}
}

// Name implements Scheme, matching the paper's figure labels.
func (o *OTP) Name() string { return o.policy.String() }

// SNC exposes the underlying sequence number cache (for reporting).
func (o *OTP) SNC() *snc.SNC { return o.snc }

// ReadLine implements Scheme.
//
//secsim:hotpath
func (o *OTP) ReadLine(now uint64, a Access) uint64 {
	ready, _, _ := o.readLine(now, a)
	return ready
}

// readLine is ReadLine plus the raw line-arrival cycle, which integrity
// wrappers need to time MAC verification against, and whether the line's
// metadata was on chip when the read began: an instruction line, or a data
// line whose SNC query hit.
func (o *OTP) readLine(now uint64, a Access) (ready, arrival uint64, covered bool) {
	if a.Instr {
		// Instructions: seed is derived from the VA alone (they are never
		// written back), so the pad always starts with the read.
		pad := o.crypto.Issue(now)
		arrival = o.bus.Read(now, mem.SrcLineFill)
		return max(arrival, pad) + 1, arrival, true
	}
	va := o.tagged(a.Line)
	if _, hit := o.snc.Query(va); hit {
		pad := o.crypto.Issue(now)
		arrival = o.bus.Read(now, mem.SrcLineFill)
		return max(arrival, pad) + 1, arrival, true
	}
	switch o.policy {
	case snc.LRU:
		// Algorithm 1, query-miss arm: fetch the encrypted sequence number
		// (a full memory round trip), decrypt it, then generate pads; the
		// demand line fetch proceeds in parallel.
		arrival = o.bus.Read(now, mem.SrcLineFill)
		seqArrival := o.bus.Read(now, mem.SrcSeqNumFetch)
		seqPlain := o.crypto.Issue(seqArrival) // decrypt the seq number
		pad := o.crypto.Issue(seqPlain)        // encrypt the seeds
		o.installFetched(now, va, o.seqMem.get(va))
		return max(arrival, pad) + 1, arrival, false
	default: // NoReplacement
		if seq, ok := o.seqMem.lookup(va); ok {
			// The line was covered before a context-switch flush spilled
			// its number: its data is still pad-encrypted in memory, so the
			// read takes the LRU-style path — fetch + decrypt the spilled
			// number, then generate the pad. Re-cover the line if a vacancy
			// exists.
			arrival = o.bus.Read(now, mem.SrcLineFill)
			seqArrival := o.bus.Read(now, mem.SrcSeqNumFetch)
			seqPlain := o.crypto.Issue(seqArrival)
			pad := o.crypto.Issue(seqPlain)
			if o.snc.TryInstall(va, seq) {
				o.seqMem.del(va)
			}
			return max(arrival, pad) + 1, arrival, false
		}
		// Uncovered line: it was encrypted directly (XOM-style), so the
		// read pays the serial decrypt.
		arrival = o.bus.Read(now, mem.SrcLineFill)
		return o.crypto.Issue(arrival), arrival, false
	}
}

// installFetched moves the line's sequence number seq, read from the
// in-memory table, into the SNC, spilling the LRU victim back to memory
// (off the critical path, through the write buffer).
func (o *OTP) installFetched(now uint64, lineVA uint64, seq uint16) {
	victimVA, victimSeq, evicted := o.snc.Install(lineVA, seq)
	if evicted {
		o.spill(now, victimVA, victimSeq)
	}
}

func (o *OTP) spill(now uint64, victimVA uint64, victimSeq uint16) {
	o.seqMem.set(victimVA, victimSeq)
	// The spilled number is encrypted directly (Section 4.1: "we choose to
	// use encryption on the sequence numbers directly, just as the XOM
	// solution") and drains through the write buffer.
	ready := o.crypto.Issue(now)
	o.wbuf.Insert(now, ready, o.bus, mem.SrcSeqNumSpill)
}

// WritebackLine implements Scheme.
//
//secsim:hotpath
func (o *OTP) WritebackLine(now uint64, a Access) uint64 {
	if a.Instr {
		// Instruction lines are never dirty; nothing to do.
		return now
	}
	cpuFree, _, _ := o.writebackLine(now, o.tagged(a.Line))
	return cpuFree
}

// writebackLine is WritebackLine for the data line at tagged address va,
// plus the line's new sequence number (0 when the line goes out directly
// encrypted without one) and whether the SNC held the line when the
// writeback began, which wrappers need for their own bookkeeping.
func (o *OTP) writebackLine(now, va uint64) (cpuFree uint64, seq uint16, covered bool) {
	if seq, hit, wrapped := o.snc.Update(va); hit {
		return o.drainLine(now, now, wrapped), seq, true
	}
	switch o.policy {
	case snc.LRU:
		// Algorithm 1, update-miss arm: fetch + decrypt the stored number,
		// increment, pad, encrypt, install, spill the victim. All in the
		// write buffer's shadow.
		seqArrival := o.bus.Read(now, mem.SrcSeqNumFetch)
		seqPlain := o.crypto.Issue(seqArrival)
		seq := o.seqMem.inc(va) // increment the architectural copy
		wrapped := seq == 0
		o.installFetched(now, va, seq)
		if wrapped {
			// Same pad-space exhaustion as the hit path, caught on the
			// in-memory copy: count it with the SNC-observed wraps so the
			// stat covers every exhaustion.
			o.snc.SeqOverflows++
		}
		return o.drainLine(now, seqPlain, wrapped), seq, false
	default: // NoReplacement
		if prev, ok := o.seqMem.lookup(va); ok {
			// Covered before a context-switch flush: the pad space for
			// this line continues from the spilled number — restarting at
			// 1 would reuse pads. Fetch + decrypt the stored number (write
			// buffer's shadow), increment, re-cover if possible.
			seqArrival := o.bus.Read(now, mem.SrcSeqNumFetch)
			seqPlain := o.crypto.Issue(seqArrival)
			wrapped := prev == math.MaxUint16
			next := prev + 1
			if o.snc.TryInstall(va, next) {
				o.seqMem.del(va)
			} else {
				o.seqMem.set(va, next)
			}
			if wrapped {
				o.snc.SeqOverflows++
			}
			return o.drainLine(now, seqPlain, wrapped), next, false
		}
		// Vacancy: the line joins the one-time-pad world with a fresh
		// sequence number. Full: direct encryption, exactly like XOM.
		if o.snc.TryInstall(va, 1) {
			return o.drainLine(now, now, false), 1, false
		}
		return o.drainLine(now, now, true), 0, false
	}
}

// drainLine encrypts a dirty line from cycle start and queues it in the
// write buffer at now. Pad generation and XOR happen while the line sits in
// the buffer: one extra cycle for the XOR vs XOM (Section 4.2). A direct
// line pays XOM's encryption instead: an uncovered line, or one whose
// 16-bit sequence space is exhausted, where the wrapped number would reuse
// a one-time pad and the paper's remedy is to re-encrypt the line under
// fresh keying material.
func (o *OTP) drainLine(now, start uint64, direct bool) uint64 {
	ready := o.crypto.Issue(start)
	if !direct {
		ready++
	}
	return o.wbuf.Insert(now, ready, o.bus, mem.SrcWriteback)
}

// SwitchPolicy returns the configured Section 4.3 context-switch policy.
func (o *OTP) SwitchPolicy() SwitchPolicy { return o.switchPolicy }

// ContextSwitch implements ContextSwitcher with the configured Section 4.3
// policy.
//
// Under SwitchFlush (option 1) every valid entry is flushed to memory with
// (direct) encryption: the sequence numbers stream through the crypto unit
// and the write buffer, and the returned cycle is when the flush has fully
// drained — the new task can start issuing earlier, but the bus sees the
// spill burst. The flushed numbers land in the in-memory table under the
// outgoing process's keys, so the original task finds them again via query
// misses when it resumes.
//
// Under SwitchPID (option 2) entries are process-tagged and nothing leaves
// the chip: the switch only changes the tag every subsequent SNC key
// carries. The cost shows up as capacity, not traffic — tag bits shrink the
// SNC and co-scheduled tasks evict each other's entries through normal LRU
// pressure.
//
//secsim:hotpath
func (o *OTP) ContextSwitch(now uint64, next int) (done uint64) {
	done = now
	flush := o.switchPolicy != SwitchPID
	if !flush {
		// A process ID beyond the tag width cannot be distinguished from
		// an earlier process sharing its truncated tag, so the hardware
		// must purge whenever such a process enters or leaves — option 2
		// degenerates to a flush on those edges.
		if limit := 1 << o.pidBits; o.pid >= limit || next >= limit {
			flush = true
		}
	}
	if flush {
		for _, pair := range o.snc.FlushAll() {
			lineVA, seq := pair[0], uint16(pair[1])
			o.seqMem.set(lineVA, seq)
			ready := o.crypto.Issue(now)
			d := o.wbuf.Insert(now, ready, o.bus, mem.SrcSeqNumSpill)
			if d > done {
				done = d
			}
		}
	}
	o.pid = next
	return done
}

// ResetStats implements Scheme.
func (o *OTP) ResetStats() { o.snc.ResetStats() }

// Bytes reports the heap bytes the scheme holds: its SNC and its
// sequence-number table. It allocates nothing.
func (o *OTP) Bytes() int {
	return int(unsafe.Sizeof(*o)) + o.snc.Bytes() + o.seqMem.bytes()
}

// Restore implements Scheme: the SNC's contents, the in-memory
// sequence-number table and the running process ID. The sequence table is
// copied into this scheme's own, reusing its chunks.
func (o *OTP) Restore(src Scheme) {
	c := src.(*OTP)
	o.snc.Restore(c.snc)
	o.seqMem.restore(c.seqMem)
	o.pid = c.pid
}
