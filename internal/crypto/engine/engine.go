// Package engine models the timing of an on-chip pipelined crypto unit.
//
// The paper assumes a fully pipelined encryption/decryption engine with a
// fixed latency (50 cycles for the DES-class ASIC of [18]/[10], 102 cycles
// for the Sandia AES-class unit in Figure 10). Being fully pipelined, a new
// block can be issued every initiation interval (1 cycle) while each block
// still takes the full latency to emerge. Algorithm 1 in the paper relies on
// this: the pads for every sub-block of a 128-byte line are produced by
// consecutive pipeline issues.
//
// The engine is purely a timing model: given issue times it returns
// completion times, tracking pipeline occupancy and a bounded issue queue.
// Functional encryption is done by the schemes themselves with the real
// ciphers.
package engine

import "fmt"

// Config describes one crypto unit.
type Config struct {
	// Latency is the end-to-end cycles for one block through the pipeline.
	Latency uint64
	// InitiationInterval is the minimum cycles between consecutive issues
	// (1 for a fully pipelined unit).
	InitiationInterval uint64
	// Ports is the number of independent pipelines (issue bandwidth).
	Ports int
}

// DefaultConfig is the paper's baseline unit: 50-cycle latency, fully
// pipelined, one pipeline.
func DefaultConfig() Config {
	return Config{Latency: 50, InitiationInterval: 1, Ports: 1}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Latency == 0 {
		return fmt.Errorf("engine: latency must be positive")
	}
	if c.InitiationInterval == 0 {
		return fmt.Errorf("engine: initiation interval must be positive")
	}
	if c.Ports <= 0 {
		return fmt.Errorf("engine: ports must be positive")
	}
	return nil
}

// Engine tracks the issue availability of a pipelined crypto unit.
type Engine struct {
	cfg Config
	// nextFree[i] is the earliest cycle port i can accept a new block.
	nextFree []uint64
}

// New creates an engine from cfg. It panics on invalid configuration
// (programming error); use cfg.Validate for user-supplied configs.
func New(cfg Config) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Engine{cfg: cfg, nextFree: make([]uint64, cfg.Ports)}
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Latency returns the configured block latency.
func (e *Engine) Latency() uint64 { return e.cfg.Latency }

// Issue submits one block at time `now` and returns the cycle its result is
// available. If all ports are busy the issue is delayed to the earliest
// available slot.
func (e *Engine) Issue(now uint64) (done uint64) {
	best := 0
	for i := 1; i < len(e.nextFree); i++ {
		if e.nextFree[i] < e.nextFree[best] {
			best = i
		}
	}
	start := now
	if e.nextFree[best] > start {
		start = e.nextFree[best]
	}
	e.nextFree[best] = start + e.cfg.InitiationInterval
	return start + e.cfg.Latency
}

// Restore copies the per-port pipeline occupancy of src, an engine with the
// same port count, into e, reusing e's port array.
func (e *Engine) Restore(src *Engine) {
	nf := e.nextFree
	*e = *src
	e.nextFree = nf
	copy(nf, src.nextFree)
}
