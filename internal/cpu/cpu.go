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
//
// Every method that retires instructions takes their count n: the memory
// operation is the last of them, and the n-1 before it are non-memory work.
// Retiring a then b instructions leaves the core exactly as retiring a+b
// does, because leftover issue slots carry over and the ROB edge stops both
// at the same instruction, so a caller makes one call per trace record for
// its gap and its memory operation together. The ROB edge (the oldest
// in-flight miss's sequence number plus ROB, or MaxUint64 with no miss in
// flight) is kept in a field, so a retire inside the window reads no
// in-flight miss.
package cpu

import (
	"fmt"
	"math"
)

// IssueWidth is instructions retired per cycle when nothing stalls (the
// paper's 4-issue). A power of two, so the clock is a shift of the issue
// slot count.
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
	cfg Config
	// issued counts issue slots since cycle 0: the clock is
	// issued/IssueWidth, and issued%IssueWidth slots of the current cycle
	// are used, so single-instruction events aggregate at IssueWidth per
	// cycle.
	issued uint64
	// retired counts instructions retired so far (the program order
	// position of the next instruction).
	retired uint64
	// misses in flight, oldest first, in a fixed ring buffer: occupancy is
	// bounded by the MSHR count, so steady-state stepping never allocates.
	misses   []inflight
	missHead int
	missN    int
	// edge is the retired count at which retirement must wait for the
	// oldest in-flight miss: its seq plus ROB, or MaxUint64 with none in
	// flight. pushMiss, popMiss, Drain and Restore keep it.
	edge uint64
	// lastLoadDone is the completion time of the most recent load, for
	// dependent chains.
	lastLoadDone uint64

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
	return &CPU{cfg: cfg, misses: make([]inflight, cfg.MSHRs), edge: math.MaxUint64}
}

// missAt returns the in-flight miss at ring position i (0 = oldest).
func (c *CPU) missAt(i int) inflight {
	j := c.missHead + i
	if j >= len(c.misses) {
		j -= len(c.misses)
	}
	return c.misses[j]
}

// popMiss drops the oldest in-flight miss and moves the ROB edge to the
// next one.
func (c *CPU) popMiss() {
	c.missHead++
	if c.missHead == len(c.misses) {
		c.missHead = 0
	}
	c.missN--
	c.edge = math.MaxUint64
	if c.missN > 0 {
		c.edge = c.missAt(0).seq + uint64(c.cfg.ROB)
	}
}

// pushMiss records a new in-flight miss (the caller has ensured a free
// MSHR); the first one in flight sets the ROB edge.
func (c *CPU) pushMiss(m inflight) {
	j := c.missHead + c.missN
	if j >= len(c.misses) {
		j -= len(c.misses)
	}
	c.misses[j] = m
	c.missN++
	if c.missN == 1 {
		c.edge = m.seq + uint64(c.cfg.ROB)
	}
}

// Config returns the core configuration.
func (c *CPU) Config() Config { return c.cfg }

// Cycles returns the current clock.
func (c *CPU) Cycles() uint64 { return c.issued / IssueWidth }

// Retired returns the number of instructions retired.
func (c *CPU) Retired() uint64 { return c.retired }

// stallTo jumps the clock to t (a pipeline stall), discarding partial-cycle
// issue slack.
func (c *CPU) stallTo(t uint64) { c.issued = t * IssueWidth }

// waitFor stalls until t if it lies ahead, adding the stall to *stat.
func (c *CPU) waitFor(t uint64, stat *uint64) {
	if now := c.Cycles(); t > now {
		*stat += t - now
		c.stallTo(t)
	}
}

// Compute retires n non-memory instructions at IssueWidth per cycle; a
// store that hits on chip retires through the store buffer and is one of
// them. Below the ROB edge that is one compare and two adds; retireROB
// handles a retire that crosses it.
func (c *CPU) Compute(n uint64) {
	if c.retired+n <= c.edge {
		c.retired += n
		c.issued += n
		return
	}
	c.retireROB(n)
}

// retireROB retires n instructions that cross the ROB edge: up to each
// edge, then a stall for the oldest miss, which leaves the window. retired
// never passes edge, so the headroom is never negative: an edge is set at
// or past the retired count (misses are pushed in retire order), and only
// this loop retires up to one. The miss count bounds the loop, so a stale
// edge shows as a wrong result, not a hang.
func (c *CPU) retireROB(n uint64) {
	for c.missN > 0 && c.retired+n > c.edge {
		headroom := c.edge - c.retired
		c.retired = c.edge
		c.issued += headroom
		c.waitFor(c.missAt(0).complete, &c.ROBStallCycles)
		c.popMiss()
		n -= headroom
	}
	c.retired += n
	c.issued += n
}

// retireLoad retires n instructions ending in a load, then waits for the
// previous load when depends marks this one as consuming its result.
func (c *CPU) retireLoad(n uint64, depends bool) {
	c.Compute(n)
	if depends {
		c.waitFor(c.lastLoadDone, &c.DepStallCycles)
	}
}

// LoadHitL1 retires n instructions ending in a load that hits the L1: fully
// pipelined, no exposure.
func (c *CPU) LoadHitL1(n uint64, depends bool) {
	c.retireLoad(n, depends)
	c.lastLoadDone = c.Cycles()
}

// LoadHitL2 retires n instructions ending in an L1 miss that hits the L2:
// the latency is exposed only to dependent consumers.
func (c *CPU) LoadHitL2(n uint64, depends bool) {
	c.retireLoad(n, depends)
	c.lastLoadDone = c.Cycles() + c.cfg.L2HitLatency
}

// IssueMiss retires n instructions ending in an L2 miss, then charges the
// wait for the previous load when depends marks the miss as consuming that
// load's result, then the wait for the oldest in-flight miss when every
// MSHR is busy. It returns the cycle the miss issues to memory. The caller
// asks the scheme when the line is ready and hands that cycle to HoldMSHR;
// an instruction fetch miss, which holds no MSHR and stalls the frontend
// instead, is Compute(n) then WaitUntil(ready).
func (c *CPU) IssueMiss(n uint64, depends bool) (issue uint64) {
	c.retireLoad(n, depends)
	if c.missN >= c.cfg.MSHRs {
		c.waitFor(c.missAt(0).complete, &c.MSHRStallCycles)
		c.popMiss()
	}
	return c.Cycles()
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

// WaitUntil advances the clock to at least t (write-buffer-full stalls).
func (c *CPU) WaitUntil(t uint64) {
	if t > c.Cycles() {
		c.stallTo(t)
	}
}

// Drain waits for all outstanding misses — call at the end of a run.
func (c *CPU) Drain() {
	for i := 0; i < c.missN; i++ {
		c.WaitUntil(c.missAt(i).complete)
	}
	c.missHead, c.missN = 0, 0
	c.edge = math.MaxUint64
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
