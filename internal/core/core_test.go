package core

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/des"
	"math"
	"testing"

	"secureproc/internal/crypto/engine"
	"secureproc/internal/mem"
	"secureproc/internal/snc"
)

func newMemSys() (*mem.Bus, *mem.WriteBuffer) {
	return mem.NewBus(mem.DefaultDRAMConfig()), mem.NewWriteBuffer(8)
}

func newEngine() *engine.Engine { return engine.New(engine.DefaultConfig()) }

func dataAccess(va uint64) Access  { return Access{Line: va} }
func instrAccess(va uint64) Access { return Access{Line: va, Instr: true} }

// The memory system returns a line at 108 (100 latency + 8 transfer).
const lineArrival = 108

func TestBaselineReadLatency(t *testing.T) {
	bus, wbuf := newMemSys()
	b := NewBaseline(bus, wbuf)
	if got := b.ReadLine(0, dataAccess(0x1000)); got != lineArrival {
		t.Errorf("baseline read = %d, want %d", got, lineArrival)
	}
	if b.Name() != "baseline" {
		t.Error("name")
	}
}

func TestXOMReadSerializesCrypto(t *testing.T) {
	bus, wbuf := newMemSys()
	x := NewXOM(bus, wbuf, newEngine())
	// mem (108) + crypto (50): the Figure 2 critical path.
	if got := x.ReadLine(0, dataAccess(0x1000)); got != lineArrival+50 {
		t.Errorf("XOM read = %d, want %d", got, lineArrival+50)
	}
	if bus.Transactions[mem.SrcLineFill] != 1 {
		t.Error("line fill transaction missing")
	}
}

func TestXOMWritebackOffCriticalPath(t *testing.T) {
	bus, wbuf := newMemSys()
	x := NewXOM(bus, wbuf, newEngine())
	if got := x.WritebackLine(5, dataAccess(0x1000)); got != 5 {
		t.Errorf("XOM writeback cpuFree = %d, want 5", got)
	}
	if bus.Transactions[mem.SrcWriteback] != 1 {
		t.Error("writeback transaction missing")
	}
}

func newOTP(policy snc.Policy) (*OTP, *mem.Bus) {
	bus, wbuf := newMemSys()
	cfg := snc.Config{SizeBytes: 64, EntryBytes: 2, Ways: 0, LineBytes: 128, Policy: policy}
	return NewOTP(bus, wbuf, newEngine(), snc.New(cfg)), bus
}

func TestOTPInstructionReadParallel(t *testing.T) {
	o, bus := newOTP(snc.LRU)
	// MAX(108, 50) + 1 = 109: Section 3.2's headline result.
	if got := o.ReadLine(0, instrAccess(0x400000)); got != lineArrival+1 {
		t.Errorf("OTP instr read = %d, want %d", got, lineArrival+1)
	}
	if o.snc.QueryHits+o.snc.QueryMisses != 0 {
		t.Error("instruction read must not query the SNC")
	}
	if bus.Transactions[mem.SrcLineFill] != 1 {
		t.Error("line fill transaction missing")
	}
}

func TestOTPQueryHitParallel(t *testing.T) {
	o, _ := newOTP(snc.LRU)
	o.SNC().Install(0x2000, 3)
	if got := o.ReadLine(0, dataAccess(0x2000)); got != lineArrival+1 {
		t.Errorf("OTP hit read = %d, want %d", got, lineArrival+1)
	}
	if o.snc.QueryHits != 1 {
		t.Error("query hit not counted")
	}
}

func TestOTPQueryMissLRU(t *testing.T) {
	o, bus := newOTP(snc.LRU)
	// Line fill issued at 0 (arrives 108); seq fetch queues behind it on
	// the bus (starts 8, arrives 116); decrypt 166; pad 216; +1 = 217.
	got := o.ReadLine(0, dataAccess(0x2000))
	if got != 217 {
		t.Errorf("OTP LRU query miss = %d, want 217", got)
	}
	if bus.Transactions[mem.SrcSeqNumFetch] != 1 {
		t.Error("seq fetch transaction missing")
	}
	// The fetched number must now be installed.
	if !o.SNC().Contains(0x2000) {
		t.Error("sequence number not installed after miss")
	}
}

func TestOTPQueryMissNoReplFallsBackToXOM(t *testing.T) {
	o, bus := newOTP(snc.NoReplacement)
	if got := o.ReadLine(0, dataAccess(0x2000)); got != lineArrival+50 {
		t.Errorf("NoRepl uncovered read = %d, want %d (XOM path)", got, lineArrival+50)
	}
	if o.snc.QueryMisses != 1 {
		t.Error("query miss not counted")
	}
	if bus.Transactions[mem.SrcSeqNumFetch] != 0 {
		t.Error("NoRepl must not fetch sequence numbers")
	}
}

func TestOTPWritebackHit(t *testing.T) {
	o, bus := newOTP(snc.LRU)
	o.SNC().Install(0x2000, 1)
	if got := o.WritebackLine(7, dataAccess(0x2000)); got != 7 {
		t.Errorf("writeback cpuFree = %d, want 7", got)
	}
	if o.snc.UpdateHits != 1 {
		t.Error("update hit not counted")
	}
	if bus.Transactions[mem.SrcWriteback] != 1 {
		t.Error("writeback transaction missing")
	}
	// The sequence number must have been incremented.
	seq, hit := o.SNC().Query(0x2000)
	if !hit || seq != 2 {
		t.Errorf("seq after writeback = %d (hit=%v), want 2", seq, hit)
	}
}

func TestOTPWritebackMissLRUFetchesAndSpills(t *testing.T) {
	o, bus := newOTP(snc.LRU)
	// Fill the tiny SNC (32 entries) so an install causes a spill.
	for i := uint64(0); i < 32; i++ {
		o.SNC().Install(i*128, 1)
	}
	if got := o.WritebackLine(0, dataAccess(0x800000)); got != 0 {
		t.Errorf("writeback stalled CPU: %d", got)
	}
	if o.snc.UpdateMisses != 1 {
		t.Error("update miss not counted")
	}
	if bus.Transactions[mem.SrcSeqNumFetch] != 1 || bus.Transactions[mem.SrcSeqNumSpill] != 1 {
		t.Errorf("traffic: fetch=%d spill=%d, want 1,1",
			bus.Transactions[mem.SrcSeqNumFetch], bus.Transactions[mem.SrcSeqNumSpill])
	}
}

func TestOTPWritebackMissNoReplInstallsWhileVacant(t *testing.T) {
	o, bus := newOTP(snc.NoReplacement)
	o.WritebackLine(0, dataAccess(0x2000))
	if !o.SNC().Contains(0x2000) {
		t.Error("vacant NoRepl SNC should accept the line")
	}
	// Fill it up, then write an uncovered line: direct encryption.
	for i := uint64(1); i < 64; i++ {
		o.WritebackLine(0, dataAccess(i*128))
	}
	before := bus.Transactions[mem.SrcWriteback]
	o.WritebackLine(0, dataAccess(0x900000))
	if o.SNC().Contains(0x900000) {
		t.Error("full NoRepl SNC must use direct encryption, not cover the line")
	}
	if bus.Transactions[mem.SrcWriteback] != before+1 {
		t.Error("direct write must still go to memory")
	}
}

func TestOTPSpilledSeqSurvivesRoundTrip(t *testing.T) {
	// Evict a sequence number, then query-miss it back in: the value must
	// be preserved through the in-memory table.
	o, _ := newOTP(snc.LRU)
	o.SNC().Install(0x0, 0)
	// Three writebacks to line 0 -> seq 3.
	for i := 0; i < 3; i++ {
		o.WritebackLine(0, dataAccess(0x0))
	}
	// Force eviction of line 0 by writing 32 other lines through the
	// scheme, so the victim spill goes through the in-memory table.
	for i := uint64(1); i <= 32; i++ {
		o.WritebackLine(0, dataAccess(i*128))
	}
	if o.SNC().Contains(0) {
		t.Fatal("line 0 should have been evicted")
	}
	// Query miss fetches it back.
	o.ReadLine(0, dataAccess(0x0))
	seq, hit := o.SNC().Query(0)
	if !hit || seq != 3 {
		t.Errorf("restored seq = %d (hit=%v), want 3", seq, hit)
	}
}

func TestOTPNames(t *testing.T) {
	lru, _ := newOTP(snc.LRU)
	nr, _ := newOTP(snc.NoReplacement)
	if lru.Name() != "SNC-LRU" || nr.Name() != "SNC-NoRepl" {
		t.Errorf("names: %q, %q", lru.Name(), nr.Name())
	}
}

func TestOTPResetStats(t *testing.T) {
	o, _ := newOTP(snc.LRU)
	o.ReadLine(0, dataAccess(0))
	o.WritebackLine(0, dataAccess(0))
	o.ResetStats()
	for n, v := range map[string]uint64{
		"QueryHits": o.snc.QueryHits, "QueryMisses": o.snc.QueryMisses,
		"UpdateHits": o.snc.UpdateHits, "UpdateMisses": o.snc.UpdateMisses,
		"SeqOverflows": o.snc.SeqOverflows,
	} {
		if v != 0 {
			t.Errorf("%s = %d after reset", n, v)
		}
	}
}

func TestOTPContextSwitchFlush(t *testing.T) {
	o, bus := newOTP(snc.LRU)
	// Populate the (32-entry) SNC.
	for i := uint64(0); i < 32; i++ {
		o.SNC().Install(i*128, uint16(i+1))
	}
	done := o.ContextSwitch(1000, 1)
	if done <= 1000 {
		t.Error("flush of a populated SNC should take time")
	}
	if o.SNC().Occupied() != 0 {
		t.Error("SNC not empty after context switch")
	}
	if bus.Transactions[mem.SrcSeqNumSpill] != 32 {
		t.Errorf("spill transactions = %d, want 32", bus.Transactions[mem.SrcSeqNumSpill])
	}
	// The original task resumes: its sequence numbers come back from the
	// in-memory table with their exact values.
	o.ContextSwitch(done, 0)
	o.ReadLine(done, dataAccess(5*128))
	seq, hit := o.SNC().Query(5 * 128)
	if !hit || seq != 6 {
		t.Errorf("restored seq = %d (hit=%v), want 6", seq, hit)
	}
	// Empty flush is free.
	o2, _ := newOTP(snc.LRU)
	if got := o2.ContextSwitch(50, 1); got != 50 {
		t.Errorf("empty flush took time: %d", got)
	}
}

func TestOTPContextSwitchPID(t *testing.T) {
	o, bus := newOTP(snc.LRU)
	o.switchPolicy = SwitchPID
	for i := uint64(0); i < 8; i++ {
		o.SNC().Install(i*128, uint16(i+1))
	}
	// A PID switch moves no state off chip and costs no bus traffic.
	if done := o.ContextSwitch(1000, 1); done != 1000 {
		t.Errorf("pid switch took time: %d", done)
	}
	if o.SNC().Occupied() != 8 {
		t.Error("pid switch must keep SNC contents")
	}
	if bus.Transactions[mem.SrcSeqNumSpill] != 0 {
		t.Error("pid switch must not spill")
	}
	// Process 1 writes its own line 0: a fresh entry, not process 0's.
	o.WritebackLine(1000, dataAccess(0))
	o.ContextSwitch(2000, 0)
	// Process 0's entry for line 0 is untouched.
	if seq, hit := o.SNC().Query(o.tagged(0)); !hit || seq != 1 {
		t.Errorf("process 0 seq = %d (hit=%v), want 1 true", seq, hit)
	}
}

func TestOTPNoReplContinuesSeqAcrossFlush(t *testing.T) {
	// A flushed NoRepl SNC must not restart a line's pad space at 1 when
	// the line re-enters coverage — that would reuse one-time pads.
	o, bus := newOTP(snc.NoReplacement)
	for i := 0; i < 5; i++ {
		o.WritebackLine(0, dataAccess(0x2000)) // installs seq 1, then 2..5
	}
	o.ContextSwitch(10_000, 1)
	if o.SNC().Contains(0x2000) {
		t.Fatal("flush left the entry resident")
	}
	o.ContextSwitch(20_000, 0)
	// Resumed read: the line is still pad-encrypted, so it must take the
	// seq-fetch path, not the XOM fallback.
	fetches := bus.Transactions[mem.SrcSeqNumFetch]
	o.ReadLine(30_000, dataAccess(0x2000))
	if bus.Transactions[mem.SrcSeqNumFetch] != fetches+1 {
		t.Error("resumed read of a flushed covered line must fetch its sequence number")
	}
	if seq, ok := o.SNC().Peek(0x2000); !ok || seq != 5 {
		t.Errorf("restored seq = %d (ok=%v), want 5", seq, ok)
	}
	// The next writeback continues the sequence: 6, never 1 again.
	o.WritebackLine(40_000, dataAccess(0x2000))
	if seq, _ := o.SNC().Peek(0x2000); seq != 6 {
		t.Errorf("post-flush writeback seq = %d, want 6 (continuation)", seq)
	}
}

func TestOTPPIDSwitchOverflowFlushes(t *testing.T) {
	// PIDs beyond the tag width cannot be told apart by the hardware, so
	// entering or leaving such a process must flush.
	o, bus := newOTP(snc.LRU)
	o.switchPolicy = SwitchPID
	o.pidBits = 1 // tags distinguish pids 0 and 1 only
	o.SNC().Install(0, 1)
	if o.ContextSwitch(100, 1); bus.Transactions[mem.SrcSeqNumSpill] != 0 {
		t.Fatal("in-range pid switch must not flush")
	}
	if o.SNC().Occupied() != 1 {
		t.Fatal("in-range switch dropped entries")
	}
	o.ContextSwitch(200, 2) // 2 needs 2 bits: entering flushes
	if bus.Transactions[mem.SrcSeqNumSpill] == 0 || o.SNC().Occupied() != 0 {
		t.Error("out-of-range pid must flush on entry")
	}
	o.WritebackLine(300, dataAccess(0x4000)) // pid 2 covers a line
	spills := bus.Transactions[mem.SrcSeqNumSpill]
	o.ContextSwitch(400, 0) // leaving the out-of-range pid flushes too
	if bus.Transactions[mem.SrcSeqNumSpill] == spills || o.SNC().Occupied() != 0 {
		t.Error("out-of-range pid must flush on exit")
	}
}

// TestOTPSeqOverflowRekeys covers each path that can wrap a line's 16-bit
// sequence number: an SNC update hit, an LRU update miss that fetches the
// spilled number, and a NoRepl re-cover after a flush. Each must count one
// overflow (the re-encryption that replaces the reused pad) exactly once.
func TestOTPSeqOverflowRekeys(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy snc.Policy
		seed   func(o *OTP)
	}{
		{"update-hit", snc.LRU, func(o *OTP) { o.SNC().Install(0, math.MaxUint16) }},
		{"lru-update-miss", snc.LRU, func(o *OTP) { o.seqMem.set(o.tagged(0), math.MaxUint16) }},
		{"norepl-recover", snc.NoReplacement, func(o *OTP) { o.seqMem.set(o.tagged(0), math.MaxUint16) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, bus := newOTP(tc.policy)
			tc.seed(o)
			fills := bus.Transactions[mem.SrcWriteback]
			// The wrapping writeback pays direct re-encryption, not the pad XOR.
			o.WritebackLine(0, dataAccess(0))
			if got := o.snc.SeqOverflows; got != 1 {
				t.Errorf("seq_overflows = %d, want 1", got)
			}
			if bus.Transactions[mem.SrcWriteback] != fills+1 {
				t.Error("re-encrypted line must still be written back")
			}
			// The next writeback of the re-keyed line is a normal pad write.
			o.WritebackLine(0, dataAccess(0))
			if got := o.snc.SeqOverflows; got != 1 {
				t.Errorf("seq_overflows after re-key = %d, want 1", got)
			}
		})
	}
}

// --- Functional SecureMemory tests ---

func newSecureMem(t *testing.T, block cipher.Block) *SecureMemory {
	t.Helper()
	sm, err := NewSecureMemory(mem.NewMemory(), block, 128)
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

func desCipher(t *testing.T) cipher.Block {
	t.Helper()
	c, err := des.NewCipher([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func aesCipher(t *testing.T) cipher.Block {
	t.Helper()
	c, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func line(fill byte) []byte {
	d := make([]byte, 128)
	for i := range d {
		d[i] = fill
	}
	return d
}

func TestSecureMemoryOTPRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cipher func(*testing.T) cipher.Block
	}{{"des", desCipher}, {"aes", aesCipher}} {
		t.Run(tc.name, func(t *testing.T) {
			sm := newSecureMem(t, tc.cipher(t))
			data := line(0x42)
			if err := sm.WriteLineOTP(0x1000, data); err != nil {
				t.Fatal(err)
			}
			got, err := sm.ReadLine(0x1000)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Error("OTP round trip failed")
			}
			raw, _ := sm.RawLine(0x1000)
			if bytes.Equal(raw, data) {
				t.Error("ciphertext equals plaintext")
			}
		})
	}
}

func TestSecureMemoryFreshPadPerWrite(t *testing.T) {
	// Paper Section 3.4 "Disadvantage": with a constant seed, rewrites leak
	// XOR patterns. The sequence number must yield different ciphertexts
	// for the same (value, address) pair across writes.
	sm := newSecureMem(t, desCipher(t))
	data := line(0x00)
	sm.WriteLineOTP(0x1000, data)
	ct1, _ := sm.RawLine(0x1000)
	sm.WriteLineOTP(0x1000, data)
	ct2, _ := sm.RawLine(0x1000)
	if bytes.Equal(ct1, ct2) {
		t.Error("same ciphertext for consecutive writes: seed not mutating")
	}
	if sm.Seq(0x1000) != 2 {
		t.Errorf("seq = %d, want 2", sm.Seq(0x1000))
	}
}

func TestSecureMemorySpatialDecorrelation(t *testing.T) {
	// Paper Section 3.4 "Advantage": the same value at different locations
	// must produce different OTP ciphertexts...
	sm := newSecureMem(t, desCipher(t))
	data := line(0x77)
	sm.WriteLineOTP(0x1000, data)
	sm.WriteLineOTP(0x2000, data)
	a, _ := sm.RawLine(0x1000)
	b, _ := sm.RawLine(0x2000)
	if bytes.Equal(a, b) {
		t.Error("identical OTP ciphertexts at different addresses")
	}
	// ...whereas XOM-style direct (ECB) encryption leaks the repetition —
	// the motivating weakness.
	sm2 := newSecureMem(t, desCipher(t))
	sm2.WriteLineDirect(0x1000, data)
	sm2.WriteLineDirect(0x2000, data)
	a2, _ := sm2.RawLine(0x1000)
	b2, _ := sm2.RawLine(0x2000)
	if !bytes.Equal(a2, b2) {
		t.Error("direct encryption should repeat for repeated values (that is XOM's leak)")
	}
}

func TestSecureMemoryDirectRoundTrip(t *testing.T) {
	sm := newSecureMem(t, aesCipher(t))
	data := line(0x5A)
	if err := sm.WriteLineDirect(0x3000, data); err != nil {
		t.Fatal(err)
	}
	got, err := sm.ReadLine(0x3000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("direct round trip failed")
	}
	if sm.Mode(0x3000) != ModeDirect {
		t.Error("mode not direct")
	}
}

func TestSecureMemoryPlain(t *testing.T) {
	sm := newSecureMem(t, desCipher(t))
	data := line(0x11)
	sm.WriteLinePlain(0x4000, data)
	raw, _ := sm.RawLine(0x4000)
	if !bytes.Equal(raw, data) {
		t.Error("plain line must be stored as-is")
	}
	got, _ := sm.ReadLine(0x4000)
	if !bytes.Equal(got, data) {
		t.Error("plain read failed")
	}
}

func TestSecureMemoryInstallOTPImage(t *testing.T) {
	// Vendor-side instruction encryption (Section 3.4.1): seq 0, VA seeds.
	sm := newSecureMem(t, desCipher(t))
	prog := make([]byte, 512)
	for i := range prog {
		prog[i] = byte(i)
	}
	if err := sm.InstallOTPImage(0x10000, prog); err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < 512; off += 128 {
		got, err := sm.ReadLine(0x10000 + off)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, prog[off:off+128]) {
			t.Fatalf("line at +%#x decrypts wrong", off)
		}
	}
}

func TestSecureMemoryErrors(t *testing.T) {
	sm := newSecureMem(t, desCipher(t))
	if err := sm.WriteLineOTP(0x1001, line(0)); err == nil {
		t.Error("unaligned address accepted")
	}
	if err := sm.WriteLineOTP(0x1000, make([]byte, 64)); err == nil {
		t.Error("short line accepted")
	}
	if err := sm.InstallOTPImage(0x1000, make([]byte, 100)); err == nil {
		t.Error("non-multiple image accepted")
	}
	if err := sm.InstallOTPImage(0x1001, make([]byte, 128)); err == nil {
		t.Error("unaligned image accepted")
	}
	if _, err := NewSecureMemory(mem.NewMemory(), desCipher(t), 100); err == nil {
		t.Error("line not multiple of block accepted")
	}
}

func TestSeedUniqueness(t *testing.T) {
	// (line, seq, block) triples must map to distinct seeds for realistic
	// parameters.
	seen := make(map[uint64][3]uint64)
	for _, lineVA := range []uint64{0, 128, 1 << 20, 1 << 40} {
		for _, seq := range []uint16{0, 1, 255, 65535} {
			for blk := 0; blk < 16; blk++ {
				s := Seed(lineVA, seq, blk, 8)
				key := [3]uint64{lineVA, uint64(seq), uint64(blk)}
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: %v and %v -> %#x", prev, key, s)
				}
				seen[s] = key
			}
		}
	}
}

func TestEncModeString(t *testing.T) {
	if ModePlain.String() != "plain" || ModeOTP.String() != "otp" ||
		ModeDirect.String() != "direct" || EncMode(9).String() != "unknown" {
		t.Error("mode names")
	}
}
