package core

import (
	"fmt"

	"secureproc/internal/crypto/engine"
	"secureproc/internal/snc"
)

// SchemeState is an opaque snapshot of a scheme's mutable state. A state is
// produced by Snapshottable.SnapshotState, shares nothing with the scheme it
// came from, and may be handed to RestoreState any number of times — forked
// runs never see each other through a shared state.
type SchemeState interface {
	schemeState()
}

// Snapshottable is an optional Scheme capability: schemes that can checkpoint
// their mutable state implement it so the simulator can fork measurement runs
// from a post-warmup snapshot. Schemes without it simply aren't checkpointed
// and their runs fall back to a full warmup.
type Snapshottable interface {
	// SnapshotState captures a deep copy of the scheme's mutable state.
	SnapshotState() SchemeState
	// RestoreState reinstates a state previously captured from a scheme
	// with the same configuration. It errors when handed a state of the
	// wrong kind.
	RestoreState(SchemeState) error
}

// clone deep-copies a sequence-number table. The last-chunk cache is left
// cold; it repopulates on first access.
func (t *seqTable) clone() *seqTable {
	return t.cloneInto(nil)
}

// cloneInto deep-copies t into dst (allocating one when dst is nil),
// returning dst. Chunks already present in dst are overwritten in place and
// stale ones deleted, so repeatedly restoring checkpoints into the same
// live table is allocation-free once the working set stabilizes. The last-chunk cache
// is left cold; it repopulates on first access.
func (t *seqTable) cloneInto(dst *seqTable) *seqTable {
	if dst == nil {
		dst = &seqTable{chunks: make(map[uint64]*seqChunk, len(t.chunks))}
	}
	dst.lineShift = t.lineShift
	dst.lastCN, dst.lastChunk = 0, nil
	for cn := range dst.chunks {
		if _, ok := t.chunks[cn]; !ok {
			delete(dst.chunks, cn)
		}
	}
	for cn, ch := range t.chunks {
		d := dst.chunks[cn]
		if d == nil {
			d = new(seqChunk)
			dst.chunks[cn] = d
		}
		*d = *ch
	}
	return dst
}

// statelessState is the (empty) snapshot of the schemes that hold no
// mutable state of their own, the insecure baseline and XOM: the bus, write
// buffer and crypto unit they drive are checkpointed by their own packages.
type statelessState struct{}

func (statelessState) schemeState() {}

// SnapshotState implements Snapshottable.
func (b *Baseline) SnapshotState() SchemeState { return statelessState{} }

// RestoreState implements Snapshottable.
func (b *Baseline) RestoreState(s SchemeState) error { return restoreStateless("baseline", s) }

// SnapshotState implements Snapshottable.
func (x *XOM) SnapshotState() SchemeState { return statelessState{} }

// RestoreState implements Snapshottable.
func (x *XOM) RestoreState(s SchemeState) error { return restoreStateless("XOM", s) }

func restoreStateless(name string, s SchemeState) error {
	if _, ok := s.(statelessState); !ok {
		return fmt.Errorf("core: %s cannot restore %T", name, s)
	}
	return nil
}

// otpState snapshots the one-time-pad scheme: SNC contents, the architectural
// in-memory sequence-number table and the running process ID.
type otpState struct {
	snc    *snc.Snapshot
	seqMem *seqTable
	pid    int
}

func (*otpState) schemeState() {}

// captureOTP builds the shared OTP portion of a snapshot (also used by the
// wrapping schemes).
func (o *OTP) captureOTP() *otpState {
	return &otpState{snc: o.snc.Snapshot(), seqMem: o.seqMem.clone(), pid: o.pid}
}

// restoreOTP reinstates the shared OTP portion. The sequence table is cloned
// again (into the live table, reusing its chunks) so the state stays
// pristine for further restores; the SNC snapshot is copied into the live
// SNC by its own Restore.
func (o *OTP) restoreOTP(st *otpState) {
	o.snc.Restore(st.snc)
	o.seqMem = st.seqMem.cloneInto(o.seqMem)
	o.pid = st.pid
}

// SnapshotState implements Snapshottable.
func (o *OTP) SnapshotState() SchemeState { return o.captureOTP() }

// RestoreState implements Snapshottable.
func (o *OTP) RestoreState(s SchemeState) error {
	st, ok := s.(*otpState)
	if !ok {
		return fmt.Errorf("core: OTP cannot restore %T", s)
	}
	o.restoreOTP(st)
	return nil
}

// otpMACState adds the MAC unit's pipeline occupancy and the verification
// counters to the OTP state.
type otpMACState struct {
	otp     *otpState
	macUnit engine.Snapshot

	verified    uint64
	stallCycles uint64
}

func (*otpMACState) schemeState() {}

// SnapshotState implements Snapshottable.
func (m *OTPMAC) SnapshotState() SchemeState {
	return &otpMACState{
		otp:         m.captureOTP(),
		macUnit:     m.macUnit.Snapshot(),
		verified:    m.verified,
		stallCycles: m.stallCycles,
	}
}

// RestoreState implements Snapshottable.
func (m *OTPMAC) RestoreState(s SchemeState) error {
	st, ok := s.(*otpMACState)
	if !ok {
		return fmt.Errorf("core: OTP+MAC cannot restore %T", s)
	}
	m.restoreOTP(st.otp)
	m.macUnit.Restore(st.macUnit)
	m.verified = st.verified
	m.stallCycles = st.stallCycles
	return nil
}

// otpPreState adds the pad-buffer tables to the OTP state.
type otpPreState struct {
	otp      *otpState
	padFor   *seqTable
	instrPad *seqTable
}

func (*otpPreState) schemeState() {}

// SnapshotState implements Snapshottable.
func (p *OTPPre) SnapshotState() SchemeState {
	return &otpPreState{
		otp:      p.captureOTP(),
		padFor:   p.padFor.clone(),
		instrPad: p.instrPad.clone(),
	}
}

// RestoreState implements Snapshottable.
func (p *OTPPre) RestoreState(s SchemeState) error {
	st, ok := s.(*otpPreState)
	if !ok {
		return fmt.Errorf("core: OTP-Pre cannot restore %T", s)
	}
	p.restoreOTP(st.otp)
	p.padFor = st.padFor.cloneInto(p.padFor)
	p.instrPad = st.instrPad.cloneInto(p.instrPad)
	return nil
}
