package core

import (
	"secureproc/internal/crypto/engine"
	"secureproc/internal/integrity"
	"secureproc/internal/mem"
)

// OTPMAC layers integrity verification (a keyed per-line MAC binding
// contents, address and sequence number — internal/integrity's Verifier,
// sized by integrity.MACSize) on top of the one-time-pad scheme, answering
// the question the paper scopes out: what does integrity checking cost on
// the timing path?
//
// The model, per Gassend et al.'s cached-tree observation that hot
// integrity metadata lives on chip:
//
//   - SNC query hit  -> the line's MAC is co-resident in the on-chip
//     metadata cache: verification hashes the line as it arrives, no extra
//     traffic.
//   - SNC query miss -> the MAC is fetched from the off-chip MAC table
//     alongside the sequence number (one SrcMACFetch bus read);
//     verification starts when both line and MAC are in.
//   - Writeback with covered metadata -> MAC recomputed in the write
//     buffer's shadow, no extra traffic.
//   - Writeback with uncovered metadata -> the refreshed MAC drains to the
//     MAC table through the write buffer (one SrcMACUpdate bus write).
//
// The verify policy decides whether reads wait for the check
// (VerifyBlocking) or retire it in the background while the pipeline
// consumes the data speculatively (VerifyOverlap, Gassend-style). Both
// policies charge identical traffic and MAC-unit occupancy; only the
// read-ready cycle differs. Verification itself always happens, so the
// verified counter and the would-be stall cycles are reported either way.
type OTPMAC struct {
	*OTP
	policy  integrity.VerifyPolicy
	macUnit *engine.Engine // pipelined hash unit checking/producing MACs

	verified    uint64
	stallCycles uint64 // cycles verification extends past the OTP-ready cycle
}

// NewOTPMAC wraps an OTP scheme with MAC verification under the given
// policy; verifyLatency is the MAC unit's per-line hash latency.
func NewOTPMAC(otp *OTP, policy integrity.VerifyPolicy, verifyLatency uint64) *OTPMAC {
	return &OTPMAC{
		OTP:    otp,
		policy: policy,
		macUnit: engine.New(engine.Config{
			Latency:            verifyLatency,
			InitiationInterval: 1,
			Ports:              1,
		}),
	}
}

// Name implements Scheme.
func (m *OTPMAC) Name() string {
	if m.policy == integrity.VerifyBlocking {
		return "OTP+MAC-blk"
	}
	return "OTP+MAC"
}

// VerifyPolicy returns the configured verification policy.
func (m *OTPMAC) VerifyPolicy() integrity.VerifyPolicy { return m.policy }

// ReadLine implements Scheme: OTP timing plus MAC fetch and verification.
//
//secsim:hotpath
func (m *OTPMAC) ReadLine(now uint64, a Access) uint64 {
	// The metadata (seq number + MAC) is on chip when the OTP read's SNC
	// query hits, before that read installs the entry. Instruction lines
	// use VA-derived constant seeds and a static MAC, always resident.
	ready, arrival, covered := m.readLine(now, a)
	macAvail := arrival
	if !covered {
		macArrival := m.bus.Read(now, mem.SrcMACFetch)
		macAvail = max(arrival, macArrival)
	}
	verifyDone := m.macUnit.Issue(macAvail)
	m.verified++
	if verifyDone > ready {
		m.stallCycles += verifyDone - ready
		if m.policy == integrity.VerifyBlocking {
			ready = verifyDone
		}
	}
	return ready
}

// WritebackLine implements Scheme: OTP writeback plus the MAC refresh. The
// hash happens in the write buffer's shadow; only an uncovered MAC-table
// entry costs bus traffic.
//
//secsim:hotpath
func (m *OTPMAC) WritebackLine(now uint64, a Access) uint64 {
	if a.Instr {
		return m.OTP.WritebackLine(now, a)
	}
	cpuFree, _, covered := m.writebackLine(now, m.tagged(a.Line))
	macDone := m.macUnit.Issue(now)
	if !covered {
		free := m.wbuf.Insert(now, macDone, m.bus, mem.SrcMACUpdate)
		cpuFree = max(cpuFree, free)
	}
	return cpuFree
}

// IntegrityCounters reports verification work for the Result plumbing.
func (m *OTPMAC) IntegrityCounters() (verified, stallCycles uint64) {
	return m.verified, m.stallCycles
}

// ResetStats implements Scheme.
func (m *OTPMAC) ResetStats() {
	m.OTP.ResetStats()
	m.verified, m.stallCycles = 0, 0
}

// Restore implements Scheme: the OTP state plus the MAC unit's pipeline
// occupancy and the verification counters.
func (m *OTPMAC) Restore(src Scheme) {
	c := src.(*OTPMAC)
	m.OTP.Restore(c.OTP)
	m.macUnit.Restore(c.macUnit)
	m.verified, m.stallCycles = c.verified, c.stallCycles
}
