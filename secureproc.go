// Package secureproc is a full reproduction of "Fast Secure Processor for
// Inhibiting Software Piracy and Tampering" (Yang, Zhang, Gao — MICRO-36,
// 2003): one-time-pad (counter-mode) memory encryption with an on-chip
// Sequence Number Cache, evaluated against the XOM direct-encryption
// baseline on a trace-driven out-of-order processor simulator.
//
// Protection schemes come from one fixed table: the four the paper
// evaluates (baseline, xom, snc-norepl, snc-lru) plus two extensions —
// otp-mac, which puts MAC integrity verification on the timing path (the
// cost the paper scopes out, citing Gassend et al.), and otp-precompute,
// which bounds what sequence-number prediction and pad retention can
// recover. Every scheme is addressable by name (Schemes, SchemeByName)
// with optional parameters, e.g. "otp-mac:verify=blocking".
//
// The package is a facade over the internal packages:
//
//   - Simulation: Run one benchmark under one protection scheme and get
//     cycles, traffic, SNC and integrity statistics (RunBenchmark,
//     Compare).
//   - Experiments: regenerate any of the paper's figures — plus the
//     integrity-overhead Figure I1 — with paper-vs-measured tables
//     (Figure, AllFigures).
//   - Functional encryption: byte-accurate protected memory with real
//     DES/AES pads from Go's standard library for end-to-end demos
//     (NewProtectedMemory).
//
// # Quickstart
//
//	base, _ := secureproc.RunBenchmark("mcf", secureproc.Baseline, 0.3)
//	otp, _ := secureproc.RunBenchmark("mcf", secureproc.OTPLRU, 0.3)
//	fmt.Printf("slowdown: %.2f%%\n", secureproc.Slowdown(otp, base))
package secureproc

import (
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/des"
	"fmt"

	"secureproc/internal/core"
	"secureproc/internal/experiments"
	"secureproc/internal/mem"
	"secureproc/internal/sim"
	"secureproc/internal/workload"
)

// Scheme selects a memory-protection scheme: a scheme reference (name +
// optional parameters). Use the package variables below, or resolve any
// scheme name or alias with SchemeByName.
type Scheme = sim.SchemeRef

// References to the six schemes: the four the paper evaluates plus the two
// extensions.
var (
	// Baseline is the insecure processor (no memory encryption).
	Baseline = sim.SchemeBaseline
	// XOM is direct encryption on the memory critical path.
	XOM = sim.SchemeXOM
	// OTPLRU is one-time-pad encryption with an LRU sequence number cache
	// (the paper's best configuration).
	OTPLRU = sim.SchemeOTPLRU
	// OTPNoRepl is one-time-pad encryption with a no-replacement SNC.
	OTPNoRepl = sim.SchemeOTPNoRepl
	// OTPMAC is OTPLRU plus per-line MAC integrity verification
	// (parameters: verify=overlap|blocking, verify_lat=N cycles).
	OTPMAC = sim.SchemeOTPMAC
	// OTPPrecompute is OTPLRU plus pad retention and sequence-number
	// prediction: SNC hits hide crypto latency entirely.
	OTPPrecompute = sim.SchemeOTPPrecompute
)

// Schemes lists the scheme names in table order.
func Schemes() []string { return sim.SchemeNames() }

// SchemeByName resolves a scheme reference string like "snc-lru" or
// "otp-mac:verify=blocking" against the registry (aliases accepted); the
// error for an unknown name lists every registered scheme.
func SchemeByName(name string) (Scheme, error) { return sim.SchemeByName(name) }

// Result is the outcome of one simulation run.
type Result = sim.Result

// Config is a full system configuration; see DefaultConfig.
type Config = sim.Config

// DefaultConfig returns the paper's Section 5 system: 4-issue out-of-order
// core, 32KB split L1s, 256KB 4-way 128B-line L2, 100-cycle memory,
// 50-cycle crypto unit, 64KB fully associative SNC.
func DefaultConfig() Config { return sim.DefaultConfig() }

// Benchmarks returns the names of the 11 SPEC2000-like workloads.
func Benchmarks() []string {
	out := make([]string, len(workload.BenchmarkNames))
	copy(out, workload.BenchmarkNames)
	return out
}

// RunBenchmark simulates one benchmark under the given scheme. scale
// multiplies the measured trace length (1.0 ≈ 200K memory references;
// warmup always runs in full).
func RunBenchmark(name string, scheme Scheme, scale float64) (Result, error) {
	prof, ok := workload.ByName(name)
	if !ok {
		return Result{}, fmt.Errorf("secureproc: unknown benchmark %q (have %v)", name, workload.BenchmarkNames)
	}
	cfg := sim.DefaultConfig()
	cfg.Scheme = scheme
	return sim.RunProfile(cfg, prof, scale)
}

// RunBenchmarkConfig simulates one benchmark under an explicit
// configuration.
func RunBenchmarkConfig(name string, cfg Config, scale float64) (Result, error) {
	prof, ok := workload.ByName(name)
	if !ok {
		return Result{}, fmt.Errorf("secureproc: unknown benchmark %q", name)
	}
	return sim.RunProfile(cfg, prof, scale)
}

// Slowdown returns the percent slowdown of r relative to base.
func Slowdown(r, base Result) float64 { return sim.Slowdown(r, base) }

// Comparison is the outcome of running one benchmark under every
// registered scheme.
type Comparison struct {
	Benchmark string
	Baseline  Result
	// ByScheme maps each non-baseline scheme's display name ("XOM",
	// "SNC-LRU", "OTP+MAC", ...) to its result.
	ByScheme map[string]Result
}

// SlowdownOf returns the percent slowdown for a scheme display name
// ("XOM", "SNC-LRU", "SNC-NoRepl", "OTP+MAC", "OTP-Pre").
func (c Comparison) SlowdownOf(scheme string) float64 {
	r, ok := c.ByScheme[scheme]
	if !ok {
		return 0
	}
	return sim.Slowdown(r, c.Baseline)
}

// Compare runs one benchmark under every registered scheme — the paper's
// Figure 5 for a single workload, extended to whatever the registry holds.
func Compare(name string, scale float64) (Comparison, error) {
	base, err := RunBenchmark(name, Baseline, scale)
	if err != nil {
		return Comparison{}, err
	}
	c := Comparison{Benchmark: name, Baseline: base, ByScheme: make(map[string]Result)}
	for _, sn := range Schemes() {
		if sn == Baseline.Name {
			continue
		}
		r, err := RunBenchmark(name, Scheme{Name: sn}, scale)
		if err != nil {
			return Comparison{}, err
		}
		c.ByScheme[r.Scheme] = r
	}
	return c, nil
}

// FigureResult is a regenerated paper figure with paper-vs-measured series.
type FigureResult = experiments.FigureResult

// Figures lists the regenerable paper figures.
func Figures() []string { return experiments.Names() }

// Figure regenerates one figure ("fig3" … "fig10", "figI1" for the
// integrity-overhead extension, or "figC1" for the multiprogrammed
// context-switch extension) at the given workload scale.
func Figure(name string, scale float64) (FigureResult, error) {
	return experiments.NewRunner(scale).Figure(context.Background(), name) //secsim:detach library entry point without a caller context: the figure runs to completion
}

// AllFigures regenerates the paper's complete evaluation, sharing
// simulation runs between figures.
func AllFigures(scale float64) []FigureResult {
	return experiments.NewRunner(scale).All()
}

// CipherKind selects the pad-generating block cipher for functional
// protected memory.
type CipherKind int

const (
	// CipherDES uses the standard library's DES (8-byte blocks), the
	// paper's Section 3.4.1 choice.
	CipherDES CipherKind = iota
	// CipherAES uses the standard library's AES-128 (16-byte blocks).
	CipherAES
)

// ProtectedMemory is a byte-accurate protected external memory implementing
// the paper's encryption equations with real ciphers. See
// internal/core.SecureMemory for the method set.
type ProtectedMemory = core.SecureMemory

// NewProtectedMemory builds a functional protected memory with the given
// pad cipher, key and line size (the paper uses 128-byte lines).
func NewProtectedMemory(kind CipherKind, key []byte, lineBytes int) (*ProtectedMemory, error) {
	var block cipher.Block
	var err error
	switch kind {
	case CipherDES:
		block, err = des.NewCipher(key)
	case CipherAES:
		block, err = aes.NewCipher(key)
	default:
		return nil, fmt.Errorf("secureproc: unknown cipher kind %d", kind)
	}
	if err != nil {
		return nil, err
	}
	return core.NewSecureMemory(mem.NewMemory(), block, lineBytes)
}
