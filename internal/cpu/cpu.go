// Package cpu models the timing of a 4-issue out-of-order core at the level
// the paper's evaluation needs: how much of each L2-miss latency is exposed
// to the pipeline.
//
// The paper uses SimpleScalar's sim-outorder. Its figures are driven by
// three core mechanisms, all modelled here:
//
//   - Issue bandwidth: non-memory work retires at IssueWidth per cycle.
//   - Memory-level parallelism: independent misses overlap, bounded by the
//     MSHR count and by the reorder buffer — the core can only run ROB
//     instructions past the oldest incomplete miss before retirement stalls.
//   - Dependence: a load feeding the next load (pointer chasing) exposes the
//     full latency of each link in the chain.
//
// This is an interval model, not a pipeline simulator: precise enough to
// reproduce which workloads expose how much of the crypto latency, and fast
// enough to sweep the paper's full parameter space.
package cpu

import "fmt"

// IssueWidth is instructions retired per cycle when nothing stalls (the
// paper's 4-issue). A power of two, so issue accounting is a shift and a
// mask.
const IssueWidth = 4

// Config describes the core.
type Config struct {
	// ROB is the reorder-buffer depth in instructions.
	ROB int
	// MSHRs bounds concurrently outstanding L2 misses.
	MSHRs int
	// L2HitLatency is the exposed latency of a dependent L2 hit.
	L2HitLatency uint64
}

// DefaultConfig matches the paper's 4-issue out-of-order SimpleScalar
// baseline (RUU/ROB and MSHR values are SimpleScalar-era defaults).
func DefaultConfig() Config {
	return Config{ROB: 128, MSHRs: 8, L2HitLatency: 12}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ROB <= 0 {
		return fmt.Errorf("cpu: ROB must be positive")
	}
	if c.MSHRs <= 0 {
		return fmt.Errorf("cpu: MSHRs must be positive")
	}
	return nil
}

type inflight struct {
	complete uint64 // cycle the fill returns
	seq      uint64 // instruction count when the miss issued
}

// CPU is the core timing state.
type CPU struct {
	cfg   Config
	clock uint64
	// retired counts instructions retired so far (the program order
	// position of the next instruction).
	retired uint64
	// misses in flight, oldest first, in a fixed ring buffer: occupancy is
	// bounded by the MSHR count, so steady-state stepping never allocates.
	misses   []inflight
	missHead int
	missN    int
	// lastLoadDone is the completion time of the most recent load, for
	// dependent chains.
	lastLoadDone uint64
	// slot is the number of issue slots already consumed in the current
	// cycle, so single-instruction events aggregate at IssueWidth/cycle.
	slot uint64

	// Stats.
	ROBStallCycles  uint64
	MSHRStallCycles uint64
	DepStallCycles  uint64
}

// New builds a CPU, panicking on invalid configuration.
func New(cfg Config) *CPU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &CPU{cfg: cfg, misses: make([]inflight, cfg.MSHRs)}
}

// missAt returns the in-flight miss at ring position i (0 = oldest).
func (c *CPU) missAt(i int) inflight {
	j := c.missHead + i
	if j >= len(c.misses) {
		j -= len(c.misses)
	}
	return c.misses[j]
}

// popMiss drops the oldest in-flight miss.
func (c *CPU) popMiss() {
	c.missHead++
	if c.missHead == len(c.misses) {
		c.missHead = 0
	}
	c.missN--
}

// pushMiss records a new in-flight miss (the caller has ensured a free MSHR).
func (c *CPU) pushMiss(m inflight) {
	j := c.missHead + c.missN
	if j >= len(c.misses) {
		j -= len(c.misses)
	}
	c.misses[j] = m
	c.missN++
}

// Config returns the core configuration.
func (c *CPU) Config() Config { return c.cfg }

// Cycles returns the current clock.
func (c *CPU) Cycles() uint64 { return c.clock }

// Retired returns the number of instructions retired.
func (c *CPU) Retired() uint64 { return c.retired }

// advanceIssue retires n instructions at IssueWidth per cycle, carrying
// leftover issue slots between calls.
func (c *CPU) advanceIssue(n uint64) {
	total := c.slot + n
	c.clock += total / IssueWidth
	c.slot = total % IssueWidth
}

// stallTo jumps the clock to t (a pipeline stall), discarding partial-cycle
// issue slack.
func (c *CPU) stallTo(t uint64) {
	c.clock = t
	c.slot = 0
}

// retireWindow enforces the ROB: before retiring more instructions, check
// whether the window past the oldest incomplete miss is exhausted, and if
// so wait for that miss.
func (c *CPU) retireWindow(n uint64) {
	for n > 0 {
		if c.missN == 0 {
			c.retired += n
			c.advanceIssue(n)
			return
		}
		oldest := c.missAt(0)
		limit := oldest.seq + uint64(c.cfg.ROB)
		if c.retired+n <= limit {
			c.retired += n
			c.advanceIssue(n)
			return
		}
		// Retire up to the window edge, then stall for the oldest miss.
		headroom := uint64(0)
		if limit > c.retired {
			headroom = limit - c.retired
		}
		c.retired += headroom
		c.advanceIssue(headroom)
		if oldest.complete > c.clock {
			c.ROBStallCycles += oldest.complete - c.clock
			c.stallTo(oldest.complete)
		}
		c.popMiss()
		n -= headroom
	}
}

// Compute advances the core through instrs non-memory instructions.
func (c *CPU) Compute(instrs uint64) { c.retireWindow(instrs) }

// LoadHitL1 models a load that hits the L1: fully pipelined, no exposure.
func (c *CPU) LoadHitL1(depends bool) {
	c.retireWindow(1)
	if depends && c.lastLoadDone > c.clock {
		c.DepStallCycles += c.lastLoadDone - c.clock
		c.stallTo(c.lastLoadDone)
	}
	c.lastLoadDone = c.clock
}

// LoadHitL2 models an L1 miss that hits the L2: the latency is exposed only
// to dependent consumers.
func (c *CPU) LoadHitL2(depends bool) {
	c.retireWindow(1)
	if depends && c.lastLoadDone > c.clock {
		c.DepStallCycles += c.lastLoadDone - c.clock
		c.stallTo(c.lastLoadDone)
	}
	c.lastLoadDone = c.clock + c.cfg.L2HitLatency
}

// IssueMiss charges an L2 miss its retire slot, then the wait for the
// previous load when depends marks the miss as consuming that load's result,
// then the wait for the oldest in-flight miss when every MSHR is busy. It
// returns the cycle the miss issues to memory. The caller asks the scheme
// when the line is ready and hands that cycle to HoldMSHR; an instruction
// fetch miss, which holds no MSHR and stalls the frontend instead, is
// Compute(1) then WaitUntil(ready).
func (c *CPU) IssueMiss(depends bool) (issue uint64) {
	c.retireWindow(1)
	if depends && c.lastLoadDone > c.clock {
		c.DepStallCycles += c.lastLoadDone - c.clock
		c.stallTo(c.lastLoadDone)
	}
	if c.missN >= c.cfg.MSHRs {
		oldest := c.missAt(0)
		if oldest.complete > c.clock {
			c.MSHRStallCycles += oldest.complete - c.clock
			c.stallTo(oldest.complete)
		}
		c.popMiss()
	}
	return c.clock
}

// HoldMSHR occupies an MSHR with the miss IssueMiss just issued until ready,
// the cycle its line is usable. A load miss (load) also makes ready the
// cycle a dependent load waits for; a store miss fills in the background
// (write-allocate) and retires through the store buffer without exposing
// its latency.
func (c *CPU) HoldMSHR(ready uint64, load bool) {
	c.pushMiss(inflight{complete: ready, seq: c.retired})
	if load {
		c.lastLoadDone = ready
	}
}

// StoreHit models a store that hits on chip: retires through the store
// buffer.
func (c *CPU) StoreHit() { c.retireWindow(1) }

// WaitUntil advances the clock to at least t (write-buffer-full stalls).
func (c *CPU) WaitUntil(t uint64) {
	if t > c.clock {
		c.stallTo(t)
	}
}

// Drain waits for all outstanding misses — call at the end of a run.
func (c *CPU) Drain() {
	for i := 0; i < c.missN; i++ {
		if m := c.missAt(i); m.complete > c.clock {
			c.stallTo(m.complete)
		}
	}
	c.missHead, c.missN = 0, 0
}

// Restore copies the timing state of src, a core with the same
// configuration, into c. c keeps its own miss ring (sized by cfg.MSHRs), so
// a restore allocates nothing.
func (c *CPU) Restore(src *CPU) {
	m := c.misses
	*c = *src
	c.misses = m
	copy(m, src.misses)
}
