package integrity

import "fmt"

// This file is the timing-model face of the package: where MAC
// verification lands on the memory read path, and what the verification
// unit costs. The functional side (Verifier, ProtectedStore) proves the
// mechanism detects tampering; these types let the cycle-level schemes in
// internal/core charge for it.

// VerifyPolicy selects where MAC verification sits on the read critical
// path.
type VerifyPolicy int

const (
	// VerifyOverlap retires verification in the background: the pipeline
	// consumes fetched data speculatively and only an (off-critical-path)
	// exception fires on a MAC mismatch — the Gassend et al. (HPCA 2003)
	// cached-tree execution model the paper cites for integrity.
	VerifyOverlap VerifyPolicy = iota
	// VerifyBlocking holds the line until its MAC checks out: no
	// speculation past unverified data, the conservative XOM-class model.
	VerifyBlocking
)

// String names the policy for parameter parsing and docs.
func (p VerifyPolicy) String() string {
	switch p {
	case VerifyOverlap:
		return "overlap"
	case VerifyBlocking:
		return "blocking"
	default:
		return "unknown"
	}
}

// ParseVerifyPolicy parses "overlap" or "blocking".
func ParseVerifyPolicy(s string) (VerifyPolicy, error) {
	switch s {
	case "overlap":
		return VerifyOverlap, nil
	case "blocking":
		return VerifyBlocking, nil
	default:
		return 0, fmt.Errorf("integrity: unknown verify policy %q (overlap, blocking)", s)
	}
}

// DefaultVerifyLatency is the cycles a pipelined MAC unit takes to check
// one line: a SHA-class hash over 128 bytes, comparable to (slightly above)
// the paper's 50-cycle DES-class encryption ASIC.
const DefaultVerifyLatency = 80
