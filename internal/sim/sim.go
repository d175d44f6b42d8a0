// Package sim assembles the full system — out-of-order core, split L1s,
// unified L2, write buffer, memory bus, crypto engine and a protection
// scheme — and runs workload traces through it, producing the cycle counts
// and traffic statistics behind every figure in the paper.
package sim

import (
	"fmt"

	"secureproc/internal/cache"
	"secureproc/internal/core"
	"secureproc/internal/cpu"
	"secureproc/internal/crypto/engine"
	"secureproc/internal/mem"
	"secureproc/internal/snc"
	"secureproc/internal/workload"
)

// SchemeRef selects the memory-protection scheme: a name from core's
// scheme table plus optional construction parameters (core.Ref).
type SchemeRef = core.Ref

// References to the six schemes in core's table (the four the paper
// evaluates plus two extensions); any name or alias works equally via
// SchemeByName.
var (
	// SchemeBaseline is the insecure processor.
	SchemeBaseline = SchemeRef{Name: "baseline"}
	// SchemeXOM is direct encryption on the critical path.
	SchemeXOM = SchemeRef{Name: "xom"}
	// SchemeOTPLRU is one-time-pad encryption with an LRU SNC.
	SchemeOTPLRU = SchemeRef{Name: "snc-lru"}
	// SchemeOTPNoRepl is one-time-pad encryption with a no-replacement SNC.
	SchemeOTPNoRepl = SchemeRef{Name: "snc-norepl"}
	// SchemeOTPMAC is snc-lru plus MAC integrity verification.
	SchemeOTPMAC = SchemeRef{Name: "otp-mac"}
	// SchemeOTPPrecompute is snc-lru plus pad precompute/retention.
	SchemeOTPPrecompute = SchemeRef{Name: "otp-precompute"}
)

// SchemeByName resolves a scheme reference string — "snc-lru" or
// "otp-mac:verify=blocking" — against the registry, validating both the
// name (aliases accepted) and the parameters. The error for an unknown
// name lists every registered scheme.
func SchemeByName(s string) (SchemeRef, error) {
	ref, err := core.ParseRef(s)
	if err != nil {
		return SchemeRef{}, err
	}
	d, err := core.LookupRef(ref)
	if err != nil {
		return SchemeRef{}, err
	}
	ref.Name = d.Name // canonicalize aliases
	return ref, nil
}

// SchemeNames lists the scheme names in table order.
func SchemeNames() []string { return core.Names() }

// Config is a full system configuration.
type Config struct {
	CPU    cpu.Config
	L1I    cache.Config
	L1D    cache.Config
	L2     cache.Config
	DRAM   mem.DRAMConfig
	Crypto engine.Config
	SNC    snc.Config
	Scheme SchemeRef
	// WriteBufferDepth is the number of outstanding writebacks tolerated.
	WriteBufferDepth int
}

// DefaultConfig reproduces the paper's Section 5 baseline: 4-issue OoO,
// 32KB 4-way split L1s, 256KB 4-way 128B-line L2, 100-cycle memory,
// 50-cycle crypto, 64KB fully associative SNC.
func DefaultConfig() Config {
	return Config{
		CPU:              cpu.DefaultConfig(),
		L1I:              cache.Config{Name: "L1I", SizeBytes: 32 << 10, LineBytes: 64, Ways: 4},
		L1D:              cache.Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Ways: 4},
		L2:               cache.Config{Name: "L2", SizeBytes: 256 << 10, LineBytes: 128, Ways: 4},
		DRAM:             mem.DefaultDRAMConfig(),
		Crypto:           engine.DefaultConfig(),
		SNC:              snc.DefaultConfig(),
		Scheme:           SchemeBaseline,
		WriteBufferDepth: 8,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	for _, cc := range []cache.Config{c.L1I, c.L1D, c.L2} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if err := c.Crypto.Validate(); err != nil {
		return err
	}
	d, err := core.LookupRef(c.Scheme)
	if err != nil {
		return fmt.Errorf("sim: invalid scheme: %w", err)
	}
	if d.NeedsSNC {
		if err := c.SNC.Validate(); err != nil {
			return err
		}
		if c.SNC.LineBytes != c.L2.LineBytes {
			return fmt.Errorf("sim: SNC line size %d != L2 line size %d", c.SNC.LineBytes, c.L2.LineBytes)
		}
	}
	if c.WriteBufferDepth <= 0 {
		return fmt.Errorf("sim: write buffer depth must be positive")
	}
	return nil
}

// Result carries the outcome of one run.
type Result struct {
	Scheme       string
	Cycles       uint64
	Instructions uint64

	L1DMisses uint64
	L1IMisses uint64
	L2Misses  uint64
	L2Hits    uint64

	// Bus traffic by source (Figure 9; MAC columns for integrity schemes,
	// Figure I1).
	LineFills     uint64
	Writebacks    uint64
	SeqNumFetches uint64
	SeqNumSpills  uint64
	MACFetches    uint64
	MACUpdates    uint64

	// SNC behaviour (zero for non-OTP schemes).
	SNCQueryHits   uint64
	SNCQueryMisses uint64
	SNCUpdateHits  uint64
	SNCUpdateMiss  uint64
	// SeqOverflows counts 16-bit sequence-number wraparounds, each charged
	// as a direct re-encryption (the cost split-counter schemes attack).
	SeqOverflows uint64

	// Integrity verification (zero for schemes without MACs).
	IntegrityVerified    uint64
	IntegrityStallCycles uint64

	// CPU stall decomposition.
	ROBStallCycles  uint64
	MSHRStallCycles uint64
	DepStallCycles  uint64
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// DemandTraffic returns fills + writebacks (the Figure 9 denominator).
func (r Result) DemandTraffic() uint64 { return r.LineFills + r.Writebacks }

// SNCTraffic returns seq-number fetches + spills (the Figure 9 numerator).
func (r Result) SNCTraffic() uint64 { return r.SeqNumFetches + r.SeqNumSpills }

// MACTraffic returns integrity-induced extra traffic (MAC fetches +
// updates), the Figure I1 traffic numerator.
func (r Result) MACTraffic() uint64 { return r.MACFetches + r.MACUpdates }

// System is an assembled machine ready to consume a trace. It is plain
// data: no component holds a callback, so two systems (and two
// checkpoints) compare with reflect.DeepEqual.
type System struct {
	cfg    Config
	cpu    *cpu.CPU
	l1i    *cache.Cache
	l1d    *cache.Cache
	l2     *cache.Cache
	bus    *mem.Bus
	wbuf   *mem.WriteBuffer
	crypto *engine.Engine
	scheme core.Scheme

	// The scheme's optional capabilities, resolved once by New; nil where
	// the scheme lacks one. Schemes expose them as interfaces so the
	// registry keeps sim decoupled from the concrete scheme set; asserting
	// on every call would miss the runtime's per-site assertion cache.
	switcher  core.ContextSwitcher
	schemeSNC *snc.SNC
	integrity integrityCounter
	policy    switchPolicier
	sized     byteCounter

	// la holds the line addresses the last lookup produced, at most
	// three: see lookup.
	la [3]uint64

	// Context-switch scratch, reused so steady-state switches don't
	// allocate: the deduplicated dirty-victim list and the L2-line
	// membership set behind it.
	switchVictims []uint64
	switchSeen    map[uint64]struct{}

	// Measurement snapshot taken at the warmup/measurement boundary.
	cycles0, instr0                  uint64
	robStall0, mshrStall0, depStall0 uint64
}

// New assembles a system from cfg. The protection scheme is constructed
// through the core registry from cfg.Scheme, so any registered scheme —
// built-in or externally registered — is selectable by reference.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:    cfg,
		cpu:    cpu.New(cfg.CPU),
		l1i:    cache.New(cfg.L1I),
		l1d:    cache.New(cfg.L1D),
		l2:     cache.New(cfg.L2),
		bus:    mem.NewBus(cfg.DRAM),
		wbuf:   mem.NewWriteBuffer(cfg.WriteBufferDepth),
		crypto: engine.New(cfg.Crypto),
	}
	scheme, err := core.Build(cfg.Scheme, core.Resources{
		Bus:       s.bus,
		WBuf:      s.wbuf,
		Crypto:    s.crypto,
		SNC:       cfg.SNC,
		LineBytes: cfg.L2.LineBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s.scheme = scheme
	s.switcher, _ = scheme.(core.ContextSwitcher)
	if sp, ok := scheme.(interface{ SNC() *snc.SNC }); ok {
		s.schemeSNC = sp.SNC()
	}
	s.integrity, _ = scheme.(integrityCounter)
	s.policy, _ = scheme.(switchPolicier)
	s.sized, _ = scheme.(byteCounter)
	s.switchSeen = make(map[uint64]struct{})
	return s, nil
}

// integrityCounter is the capability of schemes that verify integrity on
// the timing path (OTP+MAC).
type integrityCounter interface {
	IntegrityCounters() (verified, stallCycles uint64)
}

// byteCounter is the capability of schemes that hold tables of their own
// (the OTP family: the SNC and the sequence-number tables), reporting
// their heap bytes without allocating.
type byteCounter interface {
	Bytes() int
}

// switchPolicier is the capability of schemes with a Section 4.3
// context-switch policy (the OTP family).
type switchPolicier interface {
	SwitchPolicy() core.SwitchPolicy
}

// Scheme returns the active protection scheme.
func (s *System) Scheme() core.Scheme { return s.scheme }

// SwitchPolicy reports the scheme's context-switch policy; ok is false for
// schemes without per-process state.
func (s *System) SwitchPolicy() (p core.SwitchPolicy, ok bool) {
	if s.policy == nil {
		return 0, false
	}
	return s.policy.SwitchPolicy(), true
}

// Outcome bits: what one record did in L1I/L1D/L2. The walk is split into a
// lookup, which touches only the caches and yields these bits, and a retire,
// which makes the core and scheme calls they imply. No scheme and no timing
// can change what the caches hold, so the bits for a record stream depend on
// the cache geometry and start state alone (see outcomes.go).
const (
	// oL1Hit: the L1 hit; nothing reached L2.
	oL1Hit uint8 = 1 << iota
	// oL2Hit: the demand access hit in L2.
	oL2Hit
	// oVictim: the demand L2 fill displaced a dirty line (one address).
	oVictim
	// oWBFill: the L1's dirty victim missed L2 and was write-allocated there
	// (one address: the filled line).
	oWBFill
	// oWBVictim: that write-allocate displaced a dirty L2 line (one address,
	// consumed before oWBFill's).
	oWBVictim
)

// lookup walks rec through the caches and returns its outcome bits. The
// line addresses retire needs beyond rec itself — dirty L2 victims and the
// L1 victim's write-allocated line — go to s.la in the order retire
// consumes them.
func (s *System) lookup(rec workload.Record) uint8 {
	if rec.Kind == workload.IFetch {
		if s.l1i.Access(rec.Addr, false).Hit {
			return oL1Hit
		}
		return s.lookupL2(rec.Addr, false, 0)
	}
	write := rec.Kind == workload.Store
	l1res := s.l1d.Access(rec.Addr, write)
	if l1res.Hit {
		return oL1Hit
	}
	var o uint8
	n := 0
	// The L1's dirty victim descends into L2 (write-back).
	if l1res.WritebackNeeded {
		l2res := s.l2.Access(l1res.WritebackAddr, true)
		if !l2res.Hit {
			o = oWBFill
			if l2res.WritebackNeeded {
				o |= oWBVictim
				s.la[0] = l2res.WritebackAddr
				n = 1
			}
			s.la[n] = s.l2.LineAddr(l1res.WritebackAddr)
			n++
		}
	}
	// Demand access in L2. The L1 allocates regardless (already done above).
	return o | s.lookupL2(rec.Addr, write, n)
}

// lookupL2 is the demand access in L2; a dirty victim's address goes to
// s.la[n].
func (s *System) lookupL2(addr uint64, write bool, n int) uint8 {
	res := s.l2.Access(addr, write)
	if res.Hit {
		return oL2Hit
	}
	if res.WritebackNeeded {
		s.la[n] = res.WritebackAddr
		return oVictim
	}
	return 0
}

// retire makes the core and scheme calls for recs, whose outcome bits are
// ops, taking victim and fill line addresses from la in lookup's order. It
// is the one place outcome bits become calls: Step runs it over one record,
// record over a phase after its lookup pass, and replay over recorded
// outcomes. It touches no cache.
//
// A record retires with one core call: its gap and its own instruction go
// to the call for the operation (rec.Gap+1 instructions), which leaves the
// core as a Compute(rec.Gap) before it would. A record that hits in L1 or
// L2 and write-allocates no fill calls no scheme and retires here: a store
// or an instruction fetch L1 hit is Compute, a data L1 hit LoadHitL1, and an
// L2 hit LoadHitL2, exposed only to the frontend restart for an instruction
// fetch. Every other record calls apply, and an L2 hit behind a
// write-allocate fill comes back here with its gap retired. The hit arms
// sit in the loop body, not in a helper: cpu.(*CPU).Compute alone costs 77
// of the inliner's budget of 80, so a helper holding them would not inline,
// and its call would spill the loop's registers on every hit.
//
//secsim:hotpath
func (s *System) retire(recs []workload.Record, ops []uint8, la []uint64) {
	ops = ops[:len(recs)] // one bounds check here, none per record
	for i, rec := range recs {
		o := ops[i]
		n := uint64(rec.Gap) + 1
		if o&(oL1Hit|oL2Hit) == 0 || o&oWBFill != 0 {
			la = la[s.apply(rec, o, la):]
			if o&oL2Hit == 0 {
				continue
			}
			n = 1 // the fill retired the gap on its own
		}
		switch ifetch := rec.Kind == workload.IFetch; {
		case rec.Kind == workload.Store || ifetch && o&oL1Hit != 0:
			s.cpu.Compute(n) // a store retires through the store buffer
		case o&oL1Hit != 0:
			s.cpu.LoadHitL1(n, rec.Depends)
		default:
			s.cpu.LoadHitL2(n, rec.Depends && !ifetch)
		}
	}
}

// apply makes the calls of a record whose outcome calls the scheme: an L2
// miss, an instruction fetch miss or a write-allocate fill. It returns how
// many words of la it consumed. A fill in front of an L2 hit leaves the hit
// to retire.
//
// When a writeback or a write-allocate fill comes first, the gap retires
// on its own before it, since those read the clock before the record's own
// instruction retires. An L2 miss is three calls, written out at each site:
// the core issues it, the scheme says when the line is ready, and the core
// holds an MSHR until then.
func (s *System) apply(rec workload.Record, o uint8, la []uint64) int {
	n := uint64(rec.Gap) + 1
	if o&(oVictim|oWBFill) != 0 {
		s.cpu.Compute(uint64(rec.Gap))
		n = 1
	}
	if rec.Kind == workload.IFetch {
		// The frontend drains, so the fill latency is fully exposed.
		w := s.writeback(o, la)
		s.cpu.Compute(n)
		s.cpu.WaitUntil(s.scheme.ReadLine(s.cpu.Cycles(), core.Access{Line: s.l2.LineAddr(rec.Addr), Instr: true}))
		return w
	}
	w := 0
	if o&oWBFill != 0 {
		// Write-allocate the L1 victim's line in L2: a background fill.
		if o&oWBVictim != 0 {
			s.writebackLine(la[0])
			w = 1
		}
		issue := s.cpu.IssueMiss(1, false)
		s.cpu.HoldMSHR(s.scheme.ReadLine(issue, core.Access{Line: la[w]}), false)
		w++
		if o&oL2Hit != 0 {
			return w
		}
	}
	write := rec.Kind == workload.Store
	w += s.writeback(o, la[w:])
	issue := s.cpu.IssueMiss(n, rec.Depends && !write)
	s.cpu.HoldMSHR(s.scheme.ReadLine(issue, core.Access{Line: s.l2.LineAddr(rec.Addr)}), !write)
	return w
}

// writeback writes back the demand fill's dirty L2 victim, if o has one,
// and returns the words of la it consumed.
func (s *System) writeback(o uint8, la []uint64) int {
	if o&oVictim == 0 {
		return 0
	}
	s.writebackLine(la[0])
	return 1
}

// writebackLine routes a dirty L2 eviction through the scheme's writeback
// path and charges any CPU stall (write buffer full).
func (s *System) writebackLine(line uint64) {
	cpuFree := s.scheme.WritebackLine(s.cpu.Cycles(), core.Access{Line: line})
	s.cpu.WaitUntil(cpuFree)
}

// Step feeds one trace record through the machine: lookup, then a
// one-record retire, the loop every run's core and scheme calls go
// through. External drivers (the multiprogrammed scheduler in
// internal/sched) use it to interleave several streams on one system; Run
// remains the single-stream entry point. The record and its outcome go to
// retire as slices of local one-element arrays, which stay on the stack.
func (s *System) Step(rec workload.Record) {
	recs := [1]workload.Record{rec}
	ops := [1]uint8{s.lookup(rec)}
	s.retire(recs[:], ops[:], s.la[:])
}

// Cycles returns the core's current clock.
func (s *System) Cycles() uint64 { return s.cpu.Cycles() }

// Retired returns the number of instructions retired so far.
func (s *System) Retired() uint64 { return s.cpu.Retired() }

// Drain stalls until all outstanding misses complete (end of a run).
func (s *System) Drain() { s.cpu.Drain() }

// BusDemandTransactions returns fills + writebacks so far (the traffic
// denominator external drivers report percentages against).
func (s *System) BusDemandTransactions() uint64 { return s.bus.DemandTransactions() }

// SwitchCost itemizes what one task switch put on the memory system.
type SwitchCost struct {
	// DirtyWritebacks is the number of dirty lines the cache invalidation
	// pushed out through the scheme's writeback path.
	DirtyWritebacks uint64
	// SeqSpills is the switch-induced SNC spill traffic (nonzero only for
	// the flush policy).
	SeqSpills uint64
	// SchemeDone is the cycle the scheme's switch work has fully drained
	// (== the switch cycle when the scheme has no per-process state).
	SchemeDone uint64
}

// ContextSwitch switches the machine to process next (Section 4.3 put on
// the timing path): every cache level is invalidated, dirty lines are
// written back through the protection scheme under the outgoing process,
// and then the scheme's own context-switch policy runs (SNC flush-encrypt,
// or a PID tag change). The CPU is charged exactly what the components
// charge — writebacks drain through the write buffer and stall the core
// only on buffer pressure.
func (s *System) ContextSwitch(next int) SwitchCost {
	spills0 := s.bus.Transactions[mem.SrcSeqNumSpill]
	var cost SwitchCost

	// Invalidate the hierarchy. L1 lines are smaller than L2 lines; dirty
	// state is written back at L2 granularity, deduplicated so a line dirty
	// in both levels goes out once. Victim list and membership set are
	// reused scratch so repeated switches stop allocating.
	s.l1i.InvalidateAll()
	victims := s.switchVictims[:0]
	clear(s.switchSeen)
	add := func(addr uint64) { //secsim:allowalloc non-escaping closure over reused scratch; AllocsPerRun==0 gate in allocs_test.go
		line := s.l2.LineAddr(addr)
		if _, ok := s.switchSeen[line]; !ok {
			s.switchSeen[line] = struct{}{} //secsim:allowalloc switchSeen is cleared, not reallocated; stable after first switch
			victims = append(victims, line) //secsim:allowalloc switchVictims scratch reuse; stable after first switch
		}
	}
	for _, d := range s.l1d.InvalidateAll() {
		add(d)
	}
	for _, d := range s.l2.InvalidateAll() {
		add(d)
	}
	for _, v := range victims {
		s.writebackLine(v)
	}
	s.switchVictims = victims
	cost.DirtyWritebacks = uint64(len(victims))

	cost.SchemeDone = s.cpu.Cycles()
	if s.switcher != nil {
		cost.SchemeDone = s.switcher.ContextSwitch(s.cpu.Cycles(), next)
	}
	cost.SeqSpills = s.bus.Transactions[mem.SrcSeqNumSpill] - spills0
	return cost
}

// BeginMeasurement marks the warmup/measurement boundary: microarchitectural
// state (cache and SNC contents, LRU recency, clock) is kept, but all
// statistics restart — mirroring the paper's fast-forward protocol.
func (s *System) BeginMeasurement() {
	s.cycles0 = s.cpu.Cycles()
	s.instr0 = s.cpu.Retired()
	s.robStall0 = s.cpu.ROBStallCycles
	s.mshrStall0 = s.cpu.MSHRStallCycles
	s.depStall0 = s.cpu.DepStallCycles
	s.l1i.ResetStats()
	s.l1d.ResetStats()
	s.l2.ResetStats()
	s.bus.ResetStats()
	s.scheme.ResetStats()
}

// Run consumes the stream to exhaustion and returns the result. The first
// warmupRecords records run before the measurement snapshot.
func (s *System) Run(stream workload.Stream, warmupRecords int) Result {
	n := 0
	for {
		rec, ok := stream.Next()
		if !ok {
			break
		}
		if n == warmupRecords {
			s.cpu.Drain() // settle outstanding warmup misses
			s.BeginMeasurement()
		}
		s.Step(rec)
		n++
	}
	s.cpu.Drain()
	if n <= warmupRecords {
		s.BeginMeasurement() // trace shorter than warmup: empty measurement
	}
	return s.result()
}

func (s *System) result() Result {
	r := Result{
		Scheme:          s.scheme.Name(),
		Cycles:          s.cpu.Cycles() - s.cycles0,
		Instructions:    s.cpu.Retired() - s.instr0,
		L1DMisses:       s.l1d.Misses,
		L1IMisses:       s.l1i.Misses,
		L2Misses:        s.l2.Misses,
		L2Hits:          s.l2.Hits,
		LineFills:       s.bus.Transactions[mem.SrcLineFill],
		Writebacks:      s.bus.Transactions[mem.SrcWriteback],
		SeqNumFetches:   s.bus.Transactions[mem.SrcSeqNumFetch],
		SeqNumSpills:    s.bus.Transactions[mem.SrcSeqNumSpill],
		MACFetches:      s.bus.Transactions[mem.SrcMACFetch],
		MACUpdates:      s.bus.Transactions[mem.SrcMACUpdate],
		ROBStallCycles:  s.cpu.ROBStallCycles - s.robStall0,
		MSHRStallCycles: s.cpu.MSHRStallCycles - s.mshrStall0,
		DepStallCycles:  s.cpu.DepStallCycles - s.depStall0,
	}
	if sn := s.schemeSNC; sn != nil {
		r.SNCQueryHits = sn.QueryHits
		r.SNCQueryMisses = sn.QueryMisses
		r.SNCUpdateHits = sn.UpdateHits
		r.SNCUpdateMiss = sn.UpdateMisses
		r.SeqOverflows = sn.SeqOverflows
	}
	if s.integrity != nil {
		r.IntegrityVerified, r.IntegrityStallCycles = s.integrity.IntegrityCounters()
	}
	return r
}

// RunProfile is the one-call entry point: build the system, generate the
// trace at the given scale, run it with the profile's warmup boundary.
func RunProfile(cfg Config, prof workload.Profile, scale float64) (Result, error) {
	sys, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	stream, err := workload.NewStream(prof, scale)
	if err != nil {
		return Result{}, err
	}
	return sys.Run(stream, prof.WarmupRefs()), nil
}

// Slowdown returns the percent slowdown of r relative to base.
func Slowdown(r, base Result) float64 {
	if base.Cycles == 0 {
		return 0
	}
	return 100 * (float64(r.Cycles)/float64(base.Cycles) - 1)
}

// NormalizedTime returns r's execution time normalized to base (Figure 8).
func NormalizedTime(r, base Result) float64 {
	if base.Cycles == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(base.Cycles)
}
