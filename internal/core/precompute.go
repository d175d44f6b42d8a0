package core

import (
	"unsafe"

	"secureproc/internal/mem"
)

// OTPPre is the sequence-number-prediction variant of the one-time-pad
// scheme: because the pad for (address, seq) is deterministic, the chip can
// retain the pad it just computed and precompute the next-expected one —
// after a writeback increments a line's sequence number, the encryption pad
// it just generated is exactly the decryption pad the next read needs. With
// the pad already sitting in the pad buffer, an SNC hit exposes only the
// one-cycle XOR: crypto latency vanishes from the hit path entirely, making
// OTPPre the sensitivity knob for "how much of OTP's residual cost is pad
// generation?" (With the paper's 50-cycle unit against a 100-cycle memory
// the pad is usually hidden anyway; crank Crypto.Latency past the memory
// round trip and the difference appears.)
//
// On an SNC miss the true sequence number still has to be fetched and
// decrypted before the prediction can be checked; a correct prediction
// skips the dependent pad generation (one crypto latency off the miss
// chain), a wrong one falls back to the full Algorithm 1 path.
//
// The pad buffer is modelled as unbounded — an idealization that makes
// OTPPre the upper bound of what prediction can buy, which is what a
// sensitivity knob should measure.
type OTPPre struct {
	*OTP

	// padFor holds, per line VA, the sequence number whose pad is
	// precomputed and buffered for that line; absence means no prediction.
	padFor *seqTable
	// instrPad marks instruction lines whose (constant-seed) pad has been
	// generated once and retained (presence-only use of the same chunked
	// table that backs padFor).
	instrPad *seqTable
}

// NewOTPPre wraps an OTP scheme with pad retention and sequence-number
// prediction.
func NewOTPPre(otp *OTP) *OTPPre {
	return &OTPPre{
		OTP:      otp,
		padFor:   newSeqTable(otp.snc.Config().LineBytes),
		instrPad: newSeqTable(otp.snc.Config().LineBytes),
	}
}

// Name implements Scheme.
func (p *OTPPre) Name() string { return "OTP-Pre" }

// ReadLine implements Scheme.
//
//secsim:hotpath
func (p *OTPPre) ReadLine(now uint64, a Access) uint64 {
	if a.Instr {
		key := p.tagged(a.Line)
		if _, ok := p.instrPad.lookup(key); ok {
			// Constant-seed pad already buffered: only the XOR remains.
			arrival := p.bus.Read(now, mem.SrcLineFill)
			return arrival + 1
		}
		// Cold instruction line: generate and retain the pad.
		p.instrPad.set(key, 1)
		pad := p.crypto.Issue(now)
		arrival := p.bus.Read(now, mem.SrcLineFill)
		return max(arrival, pad) + 1
	}
	va := p.tagged(a.Line)
	seq, hit := p.snc.Query(va)
	if hit {
		arrival := p.bus.Read(now, mem.SrcLineFill)
		if want, ok := p.padFor.lookup(va); ok && want == seq {
			// Predicted pad is buffered: the read is ready at arrival+XOR
			// no matter the crypto latency.
			return arrival + 1
		}
		// No (or stale) prediction: generate the pad now, retain it.
		p.padFor.set(va, seq)
		pad := p.crypto.Issue(now)
		return max(arrival, pad) + 1
	}
	// SNC miss (LRU policy underneath): Algorithm 1's query-miss arm, with
	// the final pad generation skipped when the fetched sequence number
	// confirms the prediction.
	arrival := p.bus.Read(now, mem.SrcLineFill)
	seqArrival := p.bus.Read(now, mem.SrcSeqNumFetch)
	seqPlain := p.crypto.Issue(seqArrival) // decrypt the stored seq number
	trueSeq := p.seqMem.get(va)
	p.installFetched(now, va, trueSeq)
	if want, ok := p.padFor.lookup(va); ok && want == trueSeq {
		return max(arrival, seqPlain) + 1
	}
	p.padFor.set(va, trueSeq)
	pad := p.crypto.Issue(seqPlain) // generate (and retain) the pad
	return max(arrival, pad) + 1
}

// WritebackLine implements Scheme: normal OTP writeback, then record that
// the encryption pad for the incremented sequence number doubles as the
// precomputed decryption pad for the line's next read. The SNC underneath
// is LRU, so the writeback always leaves the line resident under that
// number: an update hit increments it in place, an update miss installs it.
//
//secsim:hotpath
func (p *OTPPre) WritebackLine(now uint64, a Access) uint64 {
	if a.Instr {
		return p.OTP.WritebackLine(now, a)
	}
	va := p.tagged(a.Line)
	cpuFree, seq, _ := p.writebackLine(now, va)
	p.padFor.set(va, seq)
	return cpuFree
}

// Bytes reports the heap bytes the scheme holds: the OTP state plus the
// pad-buffer tables. It allocates nothing.
func (p *OTPPre) Bytes() int {
	return int(unsafe.Sizeof(*p)) + p.OTP.Bytes() + p.padFor.bytes() + p.instrPad.bytes()
}

// Restore implements Scheme: the OTP state plus the pad-buffer tables.
func (p *OTPPre) Restore(src Scheme) {
	c := src.(*OTPPre)
	p.OTP.Restore(c.OTP)
	p.padFor.restore(c.padFor)
	p.instrPad.restore(c.instrPad)
}
