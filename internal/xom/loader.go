// Package xom implements the XOM-style execution environment around the
// functional secure memory: vendor-side program packaging (Section 2.1),
// processor-side key unwrapping and loading, the decrypting fetch path for
// the SSA-32 interpreter, and the compartment model for multi-tasking
// (Section 2.3).
package xom

import (
	"crypto/des"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"

	"secureproc/internal/core"
	"secureproc/internal/isa"
	"secureproc/internal/mem"
)

// Package is what a vendor ships: the program encrypted under a symmetric
// key, and that key wrapped under the target processor's public key. Only
// the processor holding the private key can recover the symmetric key —
// the software cannot run anywhere else (the paper's anti-piracy property).
type Package struct {
	// Entry is the program entry point (virtual address).
	Entry uint32
	// Base is the load address the vendor encrypted against (Section
	// 3.4.1: instruction seeds are virtual addresses, so the image is
	// position-dependent).
	Base uint32
	// Image is the OTP-encrypted program text+data.
	Image []byte
	// WrappedKey is E_Kp(Ks): the DES program key under the CPU's RSA
	// public key.
	WrappedKey []byte
}

// LineBytes is the protected-memory line size used by the loader.
const LineBytes = 128

// VendorEncrypt packages an assembled binary for one target processor:
// generate the pad stream exactly as the processor will (seed = virtual
// address, sequence number 0) and wrap the program key.
func VendorEncrypt(binary []byte, base, entry uint32, programKey []byte, cpuPub *rsa.PublicKey, rand io.Reader) (*Package, error) {
	if base%LineBytes != 0 {
		return nil, fmt.Errorf("xom: load base %#x not line aligned", base)
	}
	// Pad to whole lines.
	img := append([]byte(nil), binary...)
	for len(img)%LineBytes != 0 {
		img = append(img, 0)
	}
	cipher, err := des.NewCipher(programKey)
	if err != nil {
		return nil, err
	}
	// The vendor uses the same pad construction as the chip: reuse
	// SecureMemory against a scratch image to produce the ciphertext.
	scratch := mem.NewMemory()
	sm, err := core.NewSecureMemory(scratch, cipher, LineBytes)
	if err != nil {
		return nil, err
	}
	if err := sm.InstallOTPImage(uint64(base), img); err != nil {
		return nil, err
	}
	ct := make([]byte, len(img))
	scratch.Read(uint64(base), ct)

	wrapped, err := rsa.EncryptOAEP(sha256.New(), rand, cpuPub, programKey, nil)
	if err != nil {
		return nil, fmt.Errorf("xom: wrapping program key: %w", err)
	}
	return &Package{Entry: entry, Base: base, Image: ct, WrappedKey: wrapped}, nil
}

// Processor is the trusted chip: it holds the RSA private key and executes
// protected packages. Everything outside it (the Memory field) is
// adversary-visible ciphertext.
type Processor struct {
	priv *rsa.PrivateKey
	// Memory is the external DRAM image (ciphertext); exported so demos
	// can show the adversary's view.
	Memory *mem.Memory
}

// NewProcessor mints a processor with a fresh 1024-bit key pair burned in
// (the smallest RSA key crypto/rsa accepts).
func NewProcessor(rand io.Reader) (*Processor, error) {
	priv, err := rsa.GenerateKey(rand, 1024)
	if err != nil {
		return nil, err
	}
	return &Processor{priv: priv, Memory: mem.NewMemory()}, nil
}

// PublicKey returns the processor's public key (printed on the box; vendors
// encrypt against it).
func (p *Processor) PublicKey() *rsa.PublicKey { return &p.priv.PublicKey }

// Load unwraps the program key, installs the ciphertext image in external
// memory, and returns a running context. The image bytes are stored
// verbatim — decryption happens at fetch time inside the chip.
func (p *Processor) Load(pkg *Package) (*Context, error) {
	ks, err := rsa.DecryptOAEP(sha256.New(), nil, p.priv, pkg.WrappedKey, nil)
	if err != nil {
		return nil, fmt.Errorf("xom: cannot unwrap program key (wrong processor?): %w", err)
	}
	cipher, err := des.NewCipher(ks)
	if err != nil {
		return nil, fmt.Errorf("xom: unwrapped key invalid: %w", err)
	}
	sm, err := core.NewSecureMemory(p.Memory, cipher, LineBytes)
	if err != nil {
		return nil, err
	}
	// Adopt the vendor ciphertext: write it raw and mark the lines as
	// OTP-mode with sequence number 0 (the vendor's convention).
	p.Memory.Write(uint64(pkg.Base), pkg.Image)
	if err := adoptOTPLines(sm, uint64(pkg.Base), len(pkg.Image)); err != nil {
		return nil, err
	}
	ctx := &Context{
		sm:    sm,
		cache: make(map[uint64][]byte),
	}
	ctx.CPU = isa.NewCPU(ctx, pkg.Entry)
	return ctx, nil
}

// adoptOTPLines marks pre-written ciphertext lines as OTP seq-0 without
// re-encrypting them.
func adoptOTPLines(sm *core.SecureMemory, base uint64, n int) error {
	for off := 0; off < n; off += LineBytes {
		if err := sm.AdoptOTPLine(base + uint64(off)); err != nil {
			return err
		}
	}
	return nil
}

// Context is one protected program mid-execution: an SSA-32 interpreter
// whose memory bus decrypts through the secure memory. It caches decrypted
// lines, standing in for the on-chip caches (plaintext inside the security
// boundary, paper Section 2.2).
type Context struct {
	// CPU is the interpreter; callers drive it via Run/Step.
	CPU *isa.CPU

	sm    *core.SecureMemory
	cache map[uint64][]byte // decrypted lines (the "on-chip" plaintext)
	dirty map[uint64]bool
}

var errNilContext = errors.New("xom: nil context")

func (c *Context) line(addr uint32) ([]byte, uint64, error) {
	if c == nil {
		return nil, 0, errNilContext
	}
	lineVA := uint64(addr) &^ (LineBytes - 1)
	if l, ok := c.cache[lineVA]; ok {
		return l, lineVA, nil
	}
	l, err := c.sm.ReadLine(lineVA)
	if err != nil {
		return nil, 0, err
	}
	c.cache[lineVA] = l
	return l, lineVA, nil
}

func (c *Context) markDirty(lineVA uint64) {
	if c.dirty == nil {
		c.dirty = make(map[uint64]bool)
	}
	c.dirty[lineVA] = true
}

// Fetch32 implements isa.Bus: instruction fetch through the decrypting
// path.
func (c *Context) Fetch32(addr uint32) (uint32, error) { return c.Load32(addr) }

// Load32 implements isa.Bus.
func (c *Context) Load32(addr uint32) (uint32, error) {
	l, lineVA, err := c.line(addr)
	if err != nil {
		return 0, err
	}
	o := addr - uint32(lineVA)
	if int(o)+4 > LineBytes {
		// Unaligned across lines: byte-compose.
		var v uint32
		for i := uint32(0); i < 4; i++ {
			b, err := c.Load8(addr + i)
			if err != nil {
				return 0, err
			}
			v |= uint32(b) << (8 * i)
		}
		return v, nil
	}
	return uint32(l[o]) | uint32(l[o+1])<<8 | uint32(l[o+2])<<16 | uint32(l[o+3])<<24, nil
}

// Load8 implements isa.Bus.
func (c *Context) Load8(addr uint32) (byte, error) {
	l, lineVA, err := c.line(addr)
	if err != nil {
		return 0, err
	}
	return l[addr-uint32(lineVA)], nil
}

// Store32 implements isa.Bus.
func (c *Context) Store32(addr uint32, v uint32) error {
	for i := uint32(0); i < 4; i++ {
		if err := c.Store8(addr+i, byte(v>>(8*i))); err != nil {
			return err
		}
	}
	return nil
}

// Store8 implements isa.Bus.
func (c *Context) Store8(addr uint32, v byte) error {
	l, lineVA, err := c.line(addr)
	if err != nil {
		return err
	}
	l[addr-uint32(lineVA)] = v
	c.markDirty(lineVA)
	return nil
}

// FlushCaches writes every dirty cached line back to external memory with a
// fresh one-time pad (sequence number increment), then drops the cache —
// what the hardware does on evictions and context switches.
func (c *Context) FlushCaches() error {
	for lineVA := range c.dirty {
		if err := c.sm.WriteLineOTP(lineVA, c.cache[lineVA]); err != nil {
			return err
		}
	}
	c.cache = make(map[uint64][]byte)
	c.dirty = nil
	return nil
}

// RawMemoryLine exposes the adversary's view of one external line.
func (c *Context) RawMemoryLine(lineVA uint64) ([]byte, error) {
	return c.sm.RawLine(lineVA)
}
