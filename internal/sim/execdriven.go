package sim

import (
	"fmt"

	"secureproc/internal/isa"
	"secureproc/internal/workload"
)

// This file couples the functional SSA-32 interpreter with the timing
// model: execution-driven simulation, the same methodology as the paper's
// SimpleScalar setup (instructions actually execute, and every fetch and
// data access walks the modelled memory hierarchy under the configured
// protection scheme).

// tracingBus wraps an isa.Bus and records the memory traffic of the
// current instruction.
type tracingBus struct {
	inner   isa.Bus
	fetch   uint64
	hasData bool
	data    workload.Record
}

func (t *tracingBus) Fetch32(addr uint32) (uint32, error) {
	t.fetch = uint64(addr)
	return t.inner.Fetch32(addr)
}

func (t *tracingBus) note(addr uint32, kind workload.Kind) {
	// One data access per instruction in SSA-32.
	t.hasData = true
	t.data = workload.Record{Kind: kind, Addr: uint64(addr)}
}

func (t *tracingBus) Load32(addr uint32) (uint32, error) {
	t.note(addr, workload.Load)
	return t.inner.Load32(addr)
}

func (t *tracingBus) Load8(addr uint32) (byte, error) {
	t.note(addr, workload.Load)
	return t.inner.Load8(addr)
}

func (t *tracingBus) Store32(addr uint32, v uint32) error {
	t.note(addr, workload.Store)
	return t.inner.Store32(addr, v)
}

func (t *tracingBus) Store8(addr uint32, v byte) error {
	t.note(addr, workload.Store)
	return t.inner.Store8(addr, v)
}

// ProgramResult couples the timing Result with the program's functional
// outcome.
type ProgramResult struct {
	Result
	ExitCode   uint32
	Functional *isa.CPU
}

// RunProgram executes a program image on the functional interpreter while
// driving this system's timing model with its fetch and data streams. The
// program runs to halt or maxInstr. Loads are conservatively treated as
// independent (the interval model's dependence bit needs dataflow analysis
// the interpreter does not expose), so absolute cycle counts are slightly
// optimistic; scheme-to-scheme comparisons remain meaningful.
func (s *System) RunProgram(bus isa.Bus, entry uint32, maxInstr uint64) (ProgramResult, error) {
	tb := &tracingBus{inner: bus}
	cpu := isa.NewCPU(tb, entry)
	for !cpu.Halted {
		if cpu.InstrRetired >= maxInstr {
			return ProgramResult{}, fmt.Errorf("sim: instruction budget %d exhausted at pc=%#x", maxInstr, cpu.PC)
		}
		tb.hasData = false
		if err := cpu.Step(); err != nil {
			return ProgramResult{}, err
		}
		// Timing: the fetch walks L1I/L2/scheme; the data access (if any)
		// walks L1D/L2/scheme.
		s.Step(workload.Record{Kind: workload.IFetch, Addr: tb.fetch})
		if tb.hasData {
			s.Step(tb.data)
		}
	}
	s.cpu.Drain()
	return ProgramResult{Result: s.result(), ExitCode: cpu.ExitCode, Functional: cpu}, nil
}

// RunProgramSource assembles src at base and runs it execution-driven on a
// fresh flat memory, returning both timing and functional results.
func RunProgramSource(cfg Config, src string, base uint32, maxInstr uint64) (ProgramResult, error) {
	sys, err := New(cfg)
	if err != nil {
		return ProgramResult{}, err
	}
	bin, _, err := isa.Assemble(src, base)
	if err != nil {
		return ProgramResult{}, err
	}
	bus := isa.NewFlatBus()
	bus.LoadImage(base, bin)
	return sys.RunProgram(bus, base, maxInstr)
}
