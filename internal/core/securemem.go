package core

import (
	"crypto/cipher"
	"fmt"
)

// Seed builds the per-block pad seed. Following Sections 3.4.1/3.4.2, the
// seed is derived from the virtual address of the cipher block (so
// neighbouring blocks get unrelated pads) and mutated by the line's
// sequence number on every write (so rewrites of the same location get
// fresh pads). Virtual addresses are assumed < 2^48, so folding the 16-bit
// sequence number into the top bits keeps (line, seq, block) → seed unique.
func Seed(lineVA uint64, seq uint16, blockIdx, blockSize int) uint64 {
	return lineVA + uint64(blockIdx*blockSize) + uint64(seq)<<48
}

// EncMode records how a line is currently represented in external memory.
type EncMode int

const (
	// ModePlain: not encrypted (shared libraries, program inputs —
	// Section 4.3).
	ModePlain EncMode = iota
	// ModeOTP: ciphertext = plaintext XOR E_K(seed) (Section 3.2).
	ModeOTP
	// ModeDirect: ciphertext = E_K(plaintext) per block, XOM-style.
	ModeDirect
)

// String names the mode.
func (m EncMode) String() string {
	switch m {
	case ModePlain:
		return "plain"
	case ModeOTP:
		return "otp"
	case ModeDirect:
		return "direct"
	default:
		return "unknown"
	}
}

// memoryImage is the minimal functional backing store SecureMemory needs.
// internal/mem.Memory satisfies it.
type memoryImage interface {
	Read(addr uint64, dst []byte)
	Write(addr uint64, src []byte)
}

// SecureMemory is the functional (byte-accurate) view of protected external
// memory: it stores real ciphertext and reproduces the paper's encryption
// equations exactly. The timing schemes above model *when* these operations
// complete; SecureMemory models *what* the bytes are, so the examples and
// attack demos operate on genuine ciphertext.
type SecureMemory struct {
	mem       memoryImage
	cipher    cipher.Block
	lineBytes int

	// seq holds the current sequence number per line VA — architecturally
	// this is the union of the SNC and the in-memory table; the functional
	// layer does not care where the number currently lives.
	seq map[uint64]uint16
	// mode tracks the current encryption mode per line VA.
	mode map[uint64]EncMode
}

// NewSecureMemory wraps a memory image with line-granular encryption.
func NewSecureMemory(m memoryImage, block cipher.Block, lineBytes int) (*SecureMemory, error) {
	if lineBytes <= 0 || lineBytes%block.BlockSize() != 0 {
		return nil, fmt.Errorf("core: line size %d not a multiple of cipher block %d", lineBytes, block.BlockSize())
	}
	return &SecureMemory{
		mem:       m,
		cipher:    block,
		lineBytes: lineBytes,
		seq:       make(map[uint64]uint16),
		mode:      make(map[uint64]EncMode),
	}, nil
}

// Mode returns the current encryption mode of the line containing va.
func (s *SecureMemory) Mode(va uint64) EncMode { return s.mode[s.lineAddr(va)] }

// Seq returns the current sequence number of the line containing va.
func (s *SecureMemory) Seq(va uint64) uint16 { return s.seq[s.lineAddr(va)] }

func (s *SecureMemory) lineAddr(va uint64) uint64 {
	return va &^ uint64(s.lineBytes-1)
}

// pad produces the one-time pad for a whole line: E_K(seed_i) for every
// cipher block i. The seed occupies the first 8 bytes of the cipher input;
// wider blocks zero-pad (the unused bytes are constant, uniqueness comes
// from the seed).
func (s *SecureMemory) pad(lineVA uint64, seq uint16) []byte {
	bs := s.cipher.BlockSize()
	out := make([]byte, s.lineBytes)
	in := make([]byte, bs)
	for i := 0; i < s.lineBytes/bs; i++ {
		seed := Seed(lineVA, seq, i, bs)
		for j := 0; j < 8; j++ {
			in[j] = byte(seed >> (8 * j))
		}
		for j := 8; j < bs; j++ {
			in[j] = 0
		}
		s.cipher.Encrypt(out[i*bs:(i+1)*bs], in)
	}
	return out
}

func xorInto(dst, a, b []byte) {
	for i := range dst {
		dst[i] = a[i] ^ b[i]
	}
}

func (s *SecureMemory) checkLine(va uint64, data []byte) error {
	if va%uint64(s.lineBytes) != 0 {
		return fmt.Errorf("core: address %#x not line aligned", va)
	}
	if data != nil && len(data) != s.lineBytes {
		return fmt.Errorf("core: data length %d != line size %d", len(data), s.lineBytes)
	}
	return nil
}

// WriteLineOTP encrypts data with a fresh one-time pad (incrementing the
// line's sequence number, paper equations 4-6) and stores the ciphertext.
func (s *SecureMemory) WriteLineOTP(lineVA uint64, data []byte) error {
	if err := s.checkLine(lineVA, data); err != nil {
		return err
	}
	s.seq[lineVA]++
	ct := make([]byte, s.lineBytes)
	xorInto(ct, data, s.pad(lineVA, s.seq[lineVA]))
	s.mem.Write(lineVA, ct)
	s.mode[lineVA] = ModeOTP
	return nil
}

// WriteLineDirect encrypts data block-by-block with the cipher itself
// (XOM-style ECB) and stores the ciphertext. Used for uncovered lines under
// the no-replacement policy and for spilled sequence numbers.
func (s *SecureMemory) WriteLineDirect(lineVA uint64, data []byte) error {
	if err := s.checkLine(lineVA, data); err != nil {
		return err
	}
	bs := s.cipher.BlockSize()
	ct := make([]byte, s.lineBytes)
	for i := 0; i < s.lineBytes/bs; i++ {
		s.cipher.Encrypt(ct[i*bs:(i+1)*bs], data[i*bs:(i+1)*bs])
	}
	s.mem.Write(lineVA, ct)
	s.mode[lineVA] = ModeDirect
	return nil
}

// WriteLinePlain stores data unencrypted (shared library code, program
// inputs — Section 4.3).
func (s *SecureMemory) WriteLinePlain(lineVA uint64, data []byte) error {
	if err := s.checkLine(lineVA, data); err != nil {
		return err
	}
	s.mem.Write(lineVA, data)
	s.mode[lineVA] = ModePlain
	return nil
}

// InstallOTPImage stores a vendor-prepared OTP ciphertext for an
// instruction region: the vendor encrypted it against virtual addresses
// with sequence number 0 (Section 3.4.1). data is plaintext; it is
// encrypted here as the vendor tool would.
func (s *SecureMemory) InstallOTPImage(baseVA uint64, data []byte) error {
	if baseVA%uint64(s.lineBytes) != 0 {
		return fmt.Errorf("core: base %#x not line aligned", baseVA)
	}
	if len(data)%s.lineBytes != 0 {
		return fmt.Errorf("core: image length %d not line multiple", len(data))
	}
	for off := 0; off < len(data); off += s.lineBytes {
		lineVA := baseVA + uint64(off)
		ct := make([]byte, s.lineBytes)
		xorInto(ct, data[off:off+s.lineBytes], s.pad(lineVA, 0))
		s.mem.Write(lineVA, ct)
		s.mode[lineVA] = ModeOTP
		s.seq[lineVA] = 0
	}
	return nil
}

// ReadLine fetches and decrypts the line at lineVA according to its current
// mode.
func (s *SecureMemory) ReadLine(lineVA uint64) ([]byte, error) {
	if err := s.checkLine(lineVA, nil); err != nil {
		return nil, err
	}
	raw := make([]byte, s.lineBytes)
	s.mem.Read(lineVA, raw)
	switch s.mode[lineVA] {
	case ModePlain:
		return raw, nil
	case ModeOTP:
		pt := make([]byte, s.lineBytes)
		xorInto(pt, raw, s.pad(lineVA, s.seq[lineVA]))
		return pt, nil
	case ModeDirect:
		bs := s.cipher.BlockSize()
		pt := make([]byte, s.lineBytes)
		for i := 0; i < s.lineBytes/bs; i++ {
			s.cipher.Decrypt(pt[i*bs:(i+1)*bs], raw[i*bs:(i+1)*bs])
		}
		return pt, nil
	default:
		return nil, fmt.Errorf("core: line %#x has unknown mode", lineVA)
	}
}

// RawLine returns the stored (cipher)text without decryption — the
// adversary's view of the bus/memory.
func (s *SecureMemory) RawLine(lineVA uint64) ([]byte, error) {
	if err := s.checkLine(lineVA, nil); err != nil {
		return nil, err
	}
	raw := make([]byte, s.lineBytes)
	s.mem.Read(lineVA, raw)
	return raw, nil
}
