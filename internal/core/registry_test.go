package core

import (
	"math/rand"
	"strings"
	"testing"

	"secureproc/internal/crypto/engine"
	"secureproc/internal/integrity"
	"secureproc/internal/mem"
	"secureproc/internal/snc"
)

func testResources() Resources {
	return Resources{
		Bus:       mem.NewBus(mem.DefaultDRAMConfig()),
		WBuf:      mem.NewWriteBuffer(8),
		Crypto:    engine.New(engine.DefaultConfig()),
		SNC:       snc.DefaultConfig(),
		LineBytes: 128,
	}
}

func TestBuiltinRegistrations(t *testing.T) {
	want := []string{"baseline", "xom", "snc-norepl", "snc-lru", "otp-mac", "otp-precompute"}
	got := Names()
	if len(got) < len(want) {
		t.Fatalf("registry too small: %v", got)
	}
	for i, n := range want {
		if got[i] != n {
			t.Fatalf("table order: got %v, want prefix %v", got, want)
		}
	}
	if len(Descriptors()) != len(got) {
		t.Error("Descriptors/Names length mismatch")
	}
	seen := make(map[string]string)
	for _, d := range Descriptors() {
		if d.Name == "" || d.New == nil {
			t.Errorf("%q: table entry needs a name and a constructor", d.Name)
		}
		if d.Doc == "" {
			t.Errorf("%s: no doc line", d.Name)
		}
		for _, k := range append([]string{d.Name}, d.Aliases...) {
			if prev, dup := seen[strings.ToLower(k)]; dup {
				t.Errorf("name %q of %s already used by %s", k, d.Name, prev)
			}
			seen[strings.ToLower(k)] = d.Name
		}
	}
}

func TestLookupAliasesAndErrors(t *testing.T) {
	for alias, want := range map[string]string{
		"LRU": "snc-lru", "otp": "snc-lru", "Base": "baseline",
		"MAC": "otp-mac", "otp-pre": "otp-precompute", " xom ": "xom",
	} {
		d, err := Lookup(alias)
		if err != nil {
			t.Errorf("Lookup(%q): %v", alias, err)
			continue
		}
		if d.Name != want {
			t.Errorf("Lookup(%q) = %q, want %q", alias, d.Name, want)
		}
	}
	_, err := Lookup("enigma")
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	for _, n := range Names() {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("unknown-name error should list %q: %v", n, err)
		}
	}
}

func TestRefParseAndCanonical(t *testing.T) {
	for in, want := range map[string]string{
		"snc-lru":                                "snc-lru",
		"otp-mac:verify=blocking":                "otp-mac:verify=blocking",
		"otp-mac:verify_lat=90, verify=blocking": "otp-mac:verify=blocking,verify_lat=90",
		"otp-mac:":                               "otp-mac",
		// An alias with spaces, unsorted keys and a repeated key: the
		// last value wins.
		"mac: verify_lat=120 ,verify=overlap,verify=blocking": "mac:verify=blocking,verify_lat=120",
		// Sorted by key, not by pair: "a" precedes "a.b".
		"x:a.b=1,a=2": "x:a=2,a.b=1",
	} {
		ref, err := ParseRef(in)
		if err != nil {
			t.Errorf("ParseRef(%q): %v", in, err)
			continue
		}
		if ref.Canonical() != want {
			t.Errorf("ParseRef(%q).Canonical() = %q, want %q", in, ref.Canonical(), want)
		}
		back, err := ParseRef(ref.Canonical())
		if err != nil || back.Canonical() != want {
			t.Errorf("canonical form %q does not round-trip", want)
		}
	}
	for _, bad := range []string{"", ":x=1", "name:broken", "name: =1"} {
		if _, err := ParseRef(bad); err == nil {
			t.Errorf("ParseRef(%q) accepted", bad)
		}
	}
}

// mustRef parses a scheme reference or fails the test.
func mustRef(t testing.TB, s string) Ref {
	t.Helper()
	r, err := ParseRef(s)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestUnknownParamErrorIsDeterministic: with several unknown parameters,
// the error names the first in sorted key order, on every lookup.
func TestUnknownParamErrorIsDeterministic(t *testing.T) {
	const want = `core: otp-mac: unknown parameter "frobnicate" (verify, verify_lat, switch, pidbits)`
	for i := 0; i < 100; i++ {
		_, err := LookupRef(mustRef(t, "otp-mac:frobnicate=1,zap=2"))
		if err == nil || err.Error() != want {
			t.Fatalf("lookup %d: got %v, want %s", i, err, want)
		}
	}
}

// TestParamsReadWithoutAllocating: a scheme constructor reads its
// parameters on every sim.New, so the accessors must not allocate.
func TestParamsReadWithoutAllocating(t *testing.T) {
	p := mustRef(t, "otp-mac:switch=pid,verify=blocking,verify_lat=120").Params()
	allocs := testing.AllocsPerRun(100, func() {
		if v, ok := p.Get("verify"); !ok || v != "blocking" {
			t.Fatalf("Get(verify) = %q, %v", v, ok)
		}
		if n, err := p.Int("verify_lat", 0); err != nil || n != 120 {
			t.Fatalf("Int(verify_lat) = %d, %v", n, err)
		}
		if v := p.Str("pidbits", "8"); v != "8" {
			t.Fatalf("Str(pidbits) = %q, want the default", v)
		}
	})
	if allocs != 0 {
		t.Errorf("parameter reads allocate %.1f times", allocs)
	}
}

// FuzzParseRef checks that every reference ParseRef accepts re-parses from
// its canonical form to an equal Ref, that every one LookupRef accepts has
// a canonical form that re-parses to the same descriptor and the same
// canonical string, and that no input panics.
func FuzzParseRef(f *testing.F) {
	for _, s := range []string{
		"snc-lru", "otp-mac:verify=blocking,verify_lat=90", "LRU:switch=pid,pidbits=4",
		"mac:", " xom ", "otp-pre:switch=flush", "base:k=v", ":x=1", "name:broken",
		"mac: verify_lat=120 ,verify=overlap,verify=blocking", "otp-mac:frobnicate=1,zap=2", "x:a.b=1,a=2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r, err := ParseRef(s)
		if err != nil {
			return
		}
		if back, err := ParseRef(r.Canonical()); err != nil || back != r {
			t.Fatalf("ParseRef(%q) = %q, but its canonical form re-parses as %q (%v)", s, r, back, err)
		}
		d, err := LookupRef(r)
		if err != nil {
			return
		}
		canon := Ref{Name: d.Name, params: r.params}.Canonical()
		back, err := ParseRef(canon)
		if err != nil {
			t.Fatalf("ParseRef(%q) accepted, but its canonical form %q does not parse: %v", s, canon, err)
		}
		d2, err := LookupRef(back)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not resolve: %v", canon, s, err)
		}
		if d2.Name != d.Name {
			t.Fatalf("canonical form %q resolves to %s, want %s", canon, d2.Name, d.Name)
		}
		if got := back.Canonical(); got != canon {
			t.Fatalf("canonical form %q re-parses as %q", canon, got)
		}
	})
}

func TestLookupRefValidatesParams(t *testing.T) {
	if _, err := LookupRef(Ref{}); err == nil || !strings.Contains(err.Error(), "no scheme selected") {
		t.Errorf("zero Ref: %v", err)
	}
	if _, err := LookupRef(mustRef(t, "baseline:k=v")); err == nil {
		t.Error("params accepted by parameterless scheme")
	}
	if _, err := LookupRef(mustRef(t, "otp-mac:verify=blocking,verify_lat=64")); err != nil {
		t.Errorf("valid otp-mac params rejected: %v", err)
	}
	if _, err := LookupRef(mustRef(t, "otp-mac:verify_lat=zero")); err == nil {
		t.Error("non-integer verify_lat accepted")
	}
}

func TestSwitchParamsValidate(t *testing.T) {
	good := []Ref{
		mustRef(t, "snc-lru:switch=flush"),
		mustRef(t, "snc-lru:switch=pid"),
		mustRef(t, "snc-lru:switch=pid,pidbits=4"),
		mustRef(t, "snc-norepl:switch=pid"),
		mustRef(t, "otp-mac:verify=blocking,switch=pid"),
		mustRef(t, "otp-precompute:switch=flush"),
	}
	for _, r := range good {
		if _, err := LookupRef(r); err != nil {
			t.Errorf("%s rejected: %v", r, err)
		}
	}
	bad := []Ref{
		mustRef(t, "snc-lru:switch=drop"),
		mustRef(t, "snc-lru:switch=pid,pidbits=0"),
		mustRef(t, "snc-lru:switch=pid,pidbits=17"),
		mustRef(t, "snc-lru:pidbits=8"), // pidbits without pid
		mustRef(t, "xom:switch=flush"),  // no per-process state
	}
	for _, r := range bad {
		if _, err := LookupRef(r); err == nil {
			t.Errorf("%s accepted", r)
		}
	}
	// The built scheme carries the policy and the shrunken SNC.
	s, err := Build(mustRef(t, "snc-lru:switch=pid"), testResources())
	if err != nil {
		t.Fatal(err)
	}
	otp := s.(*OTP)
	if otp.SwitchPolicy() != SwitchPID {
		t.Errorf("policy = %v, want pid", otp.SwitchPolicy())
	}
	untagged := testResources().SNC.Entries()
	if got := otp.SNC().Config().Entries(); got >= untagged {
		t.Errorf("tagged SNC holds %d entries, want fewer than %d", got, untagged)
	}
}

func TestBuildConstructsEveryBuiltin(t *testing.T) {
	wantName := map[string]string{
		"baseline": "baseline", "xom": "XOM",
		"snc-norepl": "SNC-NoRepl", "snc-lru": "SNC-LRU",
		"otp-mac": "OTP+MAC", "otp-precompute": "OTP-Pre",
	}
	for _, n := range Names() {
		s, err := Build(Ref{Name: n}, testResources())
		if err != nil {
			t.Errorf("Build(%s): %v", n, err)
			continue
		}
		if want := wantName[n]; s.Name() != want {
			t.Errorf("Build(%s).Name() = %q, want %q", n, s.Name(), want)
		}
	}
	s, err := Build(mustRef(t, "otp-mac:verify=blocking"), testResources())
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "OTP+MAC-blk" {
		t.Errorf("blocking variant name = %q", s.Name())
	}
}

// TestOTPMACTiming pins the unit-level integrity timing model: blocking
// verification delays a read by the MAC check, overlap does not, and
// uncovered lines cost a MAC fetch on the bus.
func TestOTPMACTiming(t *testing.T) {
	build := func(policy integrity.VerifyPolicy) (*OTPMAC, *mem.Bus) {
		res := testResources()
		otp, err := newOTPWith(res, snc.LRU, Params{})
		if err != nil {
			t.Fatal(err)
		}
		return NewOTPMAC(otp, policy, 80), res.Bus
	}
	a := Access{Line: 0x1000}

	blk, _ := build(integrity.VerifyBlocking)
	// Warm the SNC entry so the read is a query hit (covered metadata).
	blk.snc.TryInstall(a.Line, 1)
	ready := blk.ReadLine(0, a)
	// Covered hit: line at 108 (100 + 8 transfer), pad at 50, OTP ready at
	// 109; the 80-cycle MAC check starts at arrival → 188.
	if ready != 188 {
		t.Errorf("blocking covered read ready at %d, want 188", ready)
	}
	if v, stall := blk.IntegrityCounters(); v != 1 || stall != 79 {
		t.Errorf("counters = (%d, %d), want (1, 79)", v, stall)
	}

	ovl, bus := build(integrity.VerifyOverlap)
	ovl.snc.TryInstall(a.Line, 1)
	ready = ovl.ReadLine(0, a)
	if ready != 109 {
		t.Errorf("overlap covered read ready at %d, want 109 (OTP timing)", ready)
	}
	if v, stall := ovl.IntegrityCounters(); v != 1 || stall != 79 {
		t.Errorf("overlap still verifies in background: (%d, %d), want (1, 79)", v, stall)
	}
	if bus.Transactions[mem.SrcMACFetch]+bus.Transactions[mem.SrcMACUpdate] != 0 {
		t.Error("covered read should not fetch a MAC")
	}

	// Uncovered read: the MAC rides the bus with the sequence number.
	ovl2, bus2 := build(integrity.VerifyOverlap)
	ovl2.ReadLine(0, Access{Line: 0x2000})
	if bus2.Transactions[mem.SrcMACFetch] != 1 {
		t.Errorf("uncovered read made %d MAC fetches, want 1", bus2.Transactions[mem.SrcMACFetch])
	}
}

// TestOTPPrePadRetention pins the precompute model: a second read of a line
// (no intervening writeback) and a read after a writeback both find the
// pad buffered, so only the XOR cycle shows; readiness never exceeds plain
// OTP's.
func TestOTPPrePadRetention(t *testing.T) {
	res := testResources()
	// A slow crypto unit makes the hidden latency visible.
	res.Crypto = engine.New(engine.Config{Latency: 300, InitiationInterval: 1, Ports: 1})
	otp, err := newOTPWith(res, snc.LRU, Params{})
	if err != nil {
		t.Fatal(err)
	}
	p := NewOTPPre(otp)
	a := Access{Line: 0x1000}
	p.snc.TryInstall(a.Line, 5)

	first := p.ReadLine(0, a)
	if first <= 109 {
		t.Errorf("cold read at %d should expose the 300-cycle pad", first)
	}
	second := p.ReadLine(1000, a)
	if second != 1000+108+1 {
		t.Errorf("warm read ready at %d, want %d (arrival+XOR)", second, 1000+108+1)
	}

	// Writeback increments the seq; its encryption pad doubles as the next
	// read's decryption pad.
	p.WritebackLine(2000, a)
	third := p.ReadLine(3000, a)
	if third != 3000+108+1 {
		t.Errorf("post-writeback read ready at %d, want %d", third, 3000+108+1)
	}
}

// smallSNC is a 32-entry, 4-way SNC over 128B lines: a few hundred lines
// keep it full and evicting.
var smallSNC = snc.Config{SizeBytes: 64, EntryBytes: 2, Ways: 4, LineBytes: 128}

// TestOTPPreWritebackLeavesLineResident pins what OTPPre.WritebackLine
// relies on: over the LRU SNC underneath, a writeback always leaves the
// line resident under the sequence number whose pad it retains, on an
// update hit and on an update miss into a full set alike.
func TestOTPPreWritebackLeavesLineResident(t *testing.T) {
	res := testResources()
	res.SNC = smallSNC
	otp, err := newOTPWith(res, snc.LRU, Params{})
	if err != nil {
		t.Fatal(err)
	}
	p := NewOTPPre(otp)
	rng := rand.New(rand.NewSource(1))
	for i := range uint64(5000) {
		a := Access{Line: uint64(rng.Intn(256)) * 128}
		if rng.Intn(2) == 0 {
			p.ReadLine(10*i, a)
			continue
		}
		p.WritebackLine(10*i, a)
		seq, resident := p.snc.Peek(a.Line)
		pad, buffered := p.padFor.lookup(a.Line)
		if !resident || !buffered || seq != pad {
			t.Fatalf("writeback %d of %#x: SNC (%d, %v), buffered pad (%d, %v)", i, a.Line, seq, resident, pad, buffered)
		}
	}
	if s := p.snc; s.UpdateHits == 0 || s.UpdateMisses == 0 || s.Occupied() != 32 {
		t.Errorf("update hits %d, misses %d, occupied %d: want both arms over a full SNC", s.UpdateHits, s.UpdateMisses, s.Occupied())
	}
}

// TestOTPMACCoverageMatchesSNC: an otp-mac read or data writeback costs a
// MAC-table transfer exactly when the SNC does not hold the line's number
// as it starts; an instruction read is always covered.
func TestOTPMACCoverageMatchesSNC(t *testing.T) {
	res := testResources()
	res.SNC = smallSNC
	otp, err := newOTPWith(res, snc.LRU, Params{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewOTPMAC(otp, integrity.VerifyOverlap, 80)
	rng := rand.New(rand.NewSource(2))
	var fetches, updates uint64
	for i := range uint64(5000) {
		a := Access{Line: uint64(rng.Intn(256)) * 128}
		if rng.Intn(2) == 0 {
			a.Instr = rng.Intn(4) == 0
			if !a.Instr && !m.snc.Contains(a.Line) {
				fetches++
			}
			m.ReadLine(10*i, a)
			continue
		}
		if !m.snc.Contains(a.Line) {
			updates++
		}
		m.WritebackLine(10*i, a)
	}
	bus := res.Bus.Transactions
	if bus[mem.SrcMACFetch] != fetches || bus[mem.SrcMACUpdate] != updates {
		t.Errorf("MAC fetches %d, updates %d; want %d, %d", bus[mem.SrcMACFetch], bus[mem.SrcMACUpdate], fetches, updates)
	}
	if fetches == 0 || updates == 0 {
		t.Errorf("fetches %d, updates %d: want uncovered reads and writebacks", fetches, updates)
	}
}
