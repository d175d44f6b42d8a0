package secureproc_test

import (
	"bytes"
	"encoding/hex"
	"testing"

	"secureproc"
)

const apiScale = 0.1

func TestBenchmarksList(t *testing.T) {
	names := secureproc.Benchmarks()
	if len(names) != 11 {
		t.Fatalf("got %d benchmarks", len(names))
	}
	if names[0] != "ammp" || names[10] != "vpr" {
		t.Errorf("unexpected order: %v", names)
	}
}

func TestRunBenchmark(t *testing.T) {
	r, err := secureproc.RunBenchmark("gzip", secureproc.Baseline, apiScale)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 || r.Instructions == 0 {
		t.Error("empty result")
	}
	if _, err := secureproc.RunBenchmark("nope", secureproc.Baseline, apiScale); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunBenchmarkConfig(t *testing.T) {
	cfg := secureproc.DefaultConfig()
	cfg.Scheme = secureproc.XOM
	cfg.Crypto.Latency = 102
	r, err := secureproc.RunBenchmarkConfig("art", cfg, apiScale)
	if err != nil {
		t.Fatal(err)
	}
	base, err := secureproc.RunBenchmark("art", secureproc.Baseline, apiScale)
	if err != nil {
		t.Fatal(err)
	}
	if secureproc.Slowdown(r, base) < 20 {
		t.Error("102-cycle XOM on art should be a large slowdown")
	}
	if _, err := secureproc.RunBenchmarkConfig("nope", cfg, apiScale); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestSchemesRegistry(t *testing.T) {
	names := secureproc.Schemes()
	if len(names) != 6 {
		t.Fatalf("got %d schemes: %v", len(names), names)
	}
	if names[0] != "baseline" {
		t.Errorf("baseline must register first, got %v", names)
	}
	for _, n := range names {
		if _, err := secureproc.SchemeByName(n); err != nil {
			t.Errorf("SchemeByName(%q): %v", n, err)
		}
	}
	if _, err := secureproc.SchemeByName("vigenere"); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// TestRunBenchmarkEveryScheme drives the facade across the full registry,
// including both new schemes, at small scale.
func TestRunBenchmarkEveryScheme(t *testing.T) {
	base, err := secureproc.RunBenchmark("gcc", secureproc.Baseline, apiScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range secureproc.Schemes() {
		ref, err := secureproc.SchemeByName(n)
		if err != nil {
			t.Fatal(err)
		}
		r, err := secureproc.RunBenchmark("gcc", ref, apiScale)
		if err != nil {
			t.Fatalf("RunBenchmark(gcc, %s): %v", n, err)
		}
		if r.Cycles == 0 || r.Instructions != base.Instructions {
			t.Errorf("%s: malformed result (cycles=%d instrs=%d)", n, r.Cycles, r.Instructions)
		}
		if r.Cycles < base.Cycles {
			t.Errorf("%s: faster than the insecure baseline (%d < %d)", n, r.Cycles, base.Cycles)
		}
	}
	if _, err := secureproc.RunBenchmark("gcc", secureproc.Scheme{Name: "nosuch"}, apiScale); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestCompare(t *testing.T) {
	c, err := secureproc.Compare("vpr", apiScale)
	if err != nil {
		t.Fatal(err)
	}
	// Every registered scheme except the baseline, keyed by display name.
	if c.Benchmark != "vpr" || len(c.ByScheme) != len(secureproc.Schemes())-1 {
		t.Fatalf("comparison malformed: %+v", c)
	}
	for _, display := range []string{"XOM", "SNC-NoRepl", "SNC-LRU", "OTP+MAC", "OTP-Pre"} {
		if _, ok := c.ByScheme[display]; !ok {
			t.Errorf("comparison missing %q (have %v)", display, c.ByScheme)
		}
	}
	if c.SlowdownOf("XOM") <= c.SlowdownOf("SNC-LRU") {
		t.Error("XOM should be slower than SNC-LRU for vpr")
	}
	if c.SlowdownOf("OTP-Pre") > c.SlowdownOf("SNC-LRU") {
		t.Error("pad precompute should never cost more than plain OTP")
	}
	if c.SlowdownOf("bogus") != 0 {
		t.Error("unknown scheme should yield 0")
	}
	if _, err := secureproc.Compare("nope", apiScale); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestFigureAPI(t *testing.T) {
	if len(secureproc.Figures()) != 9 {
		t.Error("nine figures expected (seven paper figures + figI1 + figC1)")
	}
	fr, err := secureproc.Figure("fig3", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if fr.ID != "Figure 3" {
		t.Errorf("ID = %q", fr.ID)
	}
	if _, err := secureproc.Figure("fig99", 0.05); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestProtectedMemoryAPI(t *testing.T) {
	for _, tc := range []struct {
		kind secureproc.CipherKind
		key  int
		// raw pins the ciphertext of line 0x1000 after the write: the pad
		// bytes each cipher must keep producing.
		raw string
	}{
		{secureproc.CipherDES, 8, "440c0e92b01aad0cea845cf7db5f94bb451a12328de2db1cd45c77a7f13cc7f4" +
			"a5077cef815750c03b0f24639bda36e3ed1d60f1dd23ffe3565fc3c9a60fc2c4" +
			"62b50c46af2044e9b8368c961f7a413e40f313c2b6b1e3b7fddc433118b17a63" +
			"5f5ecccdae1a2ce20aec4300c31c882d2a3f6ec14ea48812c49f6068558a0046"},
		{secureproc.CipherAES, 16, "4a3f07aeb755db909decbaa7cead65e9534de65e5d5c5d6f918a74b337c4bda7" +
			"1f81cfe9e45469fe110c7fd71e1bfbefac61ed52aae1b243b3dbc7170bb87c11" +
			"3ccc2177b3ab9016adceba545e9ea99f3cd89b420a4f3f75fb46371286317ae3" +
			"bbc939dd0e60923a0f1fea103b29ad2c745c9286006087f90327e9cd8137ab1c"},
	} {
		pm, err := secureproc.NewProtectedMemory(tc.kind, make([]byte, tc.key), 128)
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte{0xAB}, 128)
		if err := pm.WriteLineOTP(0x1000, data); err != nil {
			t.Fatal(err)
		}
		got, err := pm.ReadLine(0x1000)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("round trip failed")
		}
		raw, _ := pm.RawLine(0x1000)
		if bytes.Equal(raw, data) {
			t.Error("not encrypted")
		}
		if got := hex.EncodeToString(raw); got != tc.raw {
			t.Errorf("cipher %d: raw line %s, want %s", tc.kind, got, tc.raw)
		}
	}
	if _, err := secureproc.NewProtectedMemory(secureproc.CipherDES, make([]byte, 3), 128); err == nil {
		t.Error("bad DES key accepted")
	}
	if _, err := secureproc.NewProtectedMemory(secureproc.CipherKind(9), nil, 128); err == nil {
		t.Error("unknown cipher accepted")
	}
}
