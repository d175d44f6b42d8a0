package integrity

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"
	"testing/quick"
)

func newStore(t *testing.T) *ProtectedStore {
	t.Helper()
	p, err := NewProtectedStore([]byte("chip-internal-key"), 128)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func line(fill byte) []byte {
	d := make([]byte, 128)
	for i := range d {
		d[i] = fill
	}
	return d
}

func TestNewVerifierValidation(t *testing.T) {
	if _, err := NewVerifier(nil, 128); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := NewVerifier([]byte("k"), 0); err == nil {
		t.Error("zero line size accepted")
	}
	v, err := NewVerifier([]byte("k"), 128)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.MAC(0, 0, make([]byte, 64)); err == nil {
		t.Error("short line accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	p := newStore(t)
	data := line(0x42)
	if err := p.Write(0x1000, data); err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("round trip mismatch")
	}
	verified, failed := p.Stats()
	if verified != 1 || failed != 0 {
		t.Errorf("stats %d/%d", verified, failed)
	}

	// A rejected wrong-length write must leave the stored line readable.
	if err := p.Write(0x1000, []byte{1, 2, 3}); err == nil {
		t.Fatal("wrong-length write accepted")
	}
	got, err = p.Read(0x1000)
	if err != nil {
		t.Fatalf("read after rejected write: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("rejected write changed the stored line")
	}
}

func TestReadMissingLine(t *testing.T) {
	p := newStore(t)
	if _, err := p.Read(0x9000); err == nil {
		t.Error("missing line should error")
	}
}

func TestSpoofingDetected(t *testing.T) {
	p := newStore(t)
	p.Write(0x1000, line(0x11))
	p.TamperSpoof(0x1000, line(0xEE))
	_, err := p.Read(0x1000)
	if !errors.Is(err, ErrTampered) {
		t.Errorf("spoofing not detected: %v", err)
	}
}

func TestSplicingDetected(t *testing.T) {
	// Both lines hold valid (ciphertext, MAC) pairs; swapping them must
	// still fail because the MAC binds the address.
	p := newStore(t)
	p.Write(0x1000, line(0x11))
	p.Write(0x2000, line(0x22))
	p.TamperSplice(0x1000, 0x2000)
	if _, err := p.Read(0x1000); !errors.Is(err, ErrTampered) {
		t.Errorf("splice at 0x1000 not detected: %v", err)
	}
	if _, err := p.Read(0x2000); !errors.Is(err, ErrTampered) {
		t.Errorf("splice at 0x2000 not detected: %v", err)
	}
}

func TestReplayDetected(t *testing.T) {
	// Snapshot an old balance, let the program overwrite it, replay the
	// snapshot: the sequence-number binding must reject it.
	p := newStore(t)
	p.Write(0x1000, line(100)) // balance = 100
	oldCT, oldMAC := p.Snapshot(0x1000)
	p.Write(0x1000, line(5)) // balance = 5
	p.TamperReplay(0x1000, oldCT, oldMAC)
	if _, err := p.Read(0x1000); !errors.Is(err, ErrTampered) {
		t.Errorf("replay not detected: %v", err)
	}
}

func TestReplayWithoutSeqWouldPass(t *testing.T) {
	// Demonstrate *why* the sequence number matters: the replayed pair
	// verifies under its original sequence number.
	p := newStore(t)
	p.Write(0x1000, line(100))
	oldCT, oldMAC := p.Snapshot(0x1000)
	v, _ := NewVerifier([]byte("chip-internal-key"), 128)
	if err := v.Check(0x1000, 1, oldCT, oldMAC); err != nil {
		t.Errorf("stale pair should verify under its stale seq: %v", err)
	}
}

func TestLegitimateRewritesKeepVerifying(t *testing.T) {
	p := newStore(t)
	for i := 0; i < 10; i++ {
		if err := p.Write(0x3000, line(byte(i))); err != nil {
			t.Fatal(err)
		}
		got, err := p.Read(0x3000)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("iteration %d: wrong data", i)
		}
	}
}

// TestMACBindsEverything: flipping any single input bit (data, address or
// seq) changes the MAC, and the base MAC keeps its pinned bytes.
func TestMACBindsEverything(t *testing.T) {
	v, _ := NewVerifier([]byte("k2"), 128)
	base, _ := v.MAC(0x1000, 7, line(0x33))
	if got, want := hex.EncodeToString(base[:]), "2e19dd34da1ee43156b193c809518109"; got != want {
		t.Errorf("MAC %s, want %s", got, want)
	}
	d := line(0x33)
	d[64] ^= 1
	m1, _ := v.MAC(0x1000, 7, d)
	m2, _ := v.MAC(0x1080, 7, line(0x33))
	m3, _ := v.MAC(0x1000, 8, line(0x33))
	for i, m := range [][MACSize]byte{m1, m2, m3} {
		if m == base {
			t.Errorf("variant %d did not change the MAC", i)
		}
	}
}

// TestRandomTamperAlwaysDetected is a property test: any random byte flip
// in a stored line is caught.
func TestRandomTamperAlwaysDetected(t *testing.T) {
	p := newStore(t)
	p.Write(0x4000, line(0x5A))
	f := func(pos uint8, flip byte) bool {
		if flip == 0 {
			flip = 1
		}
		ct, _ := p.Snapshot(0x4000)
		ct[int(pos)%128] ^= flip
		p.TamperSpoof(0x4000, ct)
		_, err := p.Read(0x4000)
		// Restore for the next iteration.
		orig := line(0x5A)
		p.TamperSpoof(0x4000, orig)
		return errors.Is(err, ErrTampered)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
