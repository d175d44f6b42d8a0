package engine

import (
	"testing"
	"testing/quick"
)

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Latency != 50 || cfg.InitiationInterval != 1 || cfg.Ports != 1 {
		t.Errorf("unexpected default config: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Latency: 0, InitiationInterval: 1, Ports: 1},
		{Latency: 50, InitiationInterval: 0, Ports: 1},
		{Latency: 50, InitiationInterval: 1, Ports: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: config %+v should be invalid", i, cfg)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{})
}

func TestSingleIssueLatency(t *testing.T) {
	e := New(DefaultConfig())
	if done := e.Issue(100); done != 150 {
		t.Errorf("Issue(100) = %d, want 150", done)
	}
}

func TestPipelinedBurst(t *testing.T) {
	// 16 pads for a 128B line with 8B DES blocks: last pad at
	// now + 50 + 15*1.
	e := New(DefaultConfig())
	var done uint64
	for i := 0; i < 16; i++ {
		done = e.Issue(0)
	}
	if done != 50+15 {
		t.Errorf("16th Issue(0) = %d, want 65", done)
	}
}

func TestBackToBackIssueRespectsII(t *testing.T) {
	cfg := Config{Latency: 10, InitiationInterval: 4, Ports: 1}
	e := New(cfg)
	d1 := e.Issue(0) // starts 0, done 10, port free at 4
	d2 := e.Issue(0) // must wait to 4, done 14
	if d1 != 10 || d2 != 14 {
		t.Errorf("got %d,%d want 10,14", d1, d2)
	}
}

func TestMultiPort(t *testing.T) {
	cfg := Config{Latency: 10, InitiationInterval: 10, Ports: 2}
	e := New(cfg)
	d1 := e.Issue(0)
	d2 := e.Issue(0) // second port, no stall
	d3 := e.Issue(0) // both busy until 10
	if d1 != 10 || d2 != 10 || d3 != 20 {
		t.Errorf("got %d,%d,%d want 10,10,20", d1, d2, d3)
	}
}

// TestCompletionMonotonic: issuing later never completes earlier.
func TestCompletionMonotonic(t *testing.T) {
	f := func(times []uint16) bool {
		e := New(DefaultConfig())
		var lastNow, lastDone uint64
		for _, raw := range times {
			now := lastNow + uint64(raw)%100
			done := e.Issue(now)
			if done < lastDone && now >= lastNow {
				return false
			}
			if done < now+e.Latency() {
				return false // latency lower bound must hold
			}
			lastNow, lastDone = now, done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConfigAccessor(t *testing.T) {
	cfg := Config{Latency: 102, InitiationInterval: 1, Ports: 1}
	e := New(cfg)
	if e.Config() != cfg {
		t.Error("Config() mismatch")
	}
	if e.Latency() != 102 {
		t.Error("Latency() mismatch")
	}
}
