package core

import (
	"fmt"
	"slices"
	"strings"

	"secureproc/internal/integrity"
	"secureproc/internal/snc"
)

// DefaultPIDBits is the per-entry process-ID tag width used by switch=pid
// when no pidbits parameter is given: 8 bits distinguishes 256 concurrent
// address spaces, the right order for a time-sliced machine.
const DefaultPIDBits = 8

// checkKeys rejects parameters outside the scheme's accepted set, naming
// the first unknown key in sorted order.
func checkKeys(scheme string, p Params, allowed ...string) error {
	for rest := p.s; rest != ""; {
		var k string
		k, _, rest = nextParam(rest)
		if !slices.Contains(allowed, k) {
			return fmt.Errorf("core: %s: unknown parameter %q (%s)",
				scheme, k, strings.Join(allowed, ", "))
		}
	}
	return nil
}

// otpSwitchParams reads the multiprogramming parameters shared by every
// OTP-based scheme: switch selects the Section 4.3 context-switch policy,
// pidbits the per-entry tag width for switch=pid.
func otpSwitchParams(p Params) (SwitchPolicy, int, error) {
	policy, err := ParseSwitchPolicy(p.Str("switch", SwitchFlush.String()))
	if err != nil {
		return 0, 0, err
	}
	bits, err := p.Int("pidbits", DefaultPIDBits)
	if err != nil {
		return 0, 0, err
	}
	if bits <= 0 || bits > 16 {
		return 0, 0, fmt.Errorf("core: pidbits must be in [1,16] (got %d)", bits)
	}
	if _, given := p.Get("pidbits"); given && policy != SwitchPID {
		return 0, 0, fmt.Errorf("core: pidbits is only meaningful with switch=pid")
	}
	return policy, bits, nil
}

// newOTPWith builds the OTP substrate with the given SNC policy forced and
// the multiprogramming parameters applied: switch=pid grows each SNC entry
// by the tag width (shrinking capacity) before construction.
func newOTPWith(res Resources, policy snc.Policy, p Params) (*OTP, error) {
	swPolicy, pidBits, err := otpSwitchParams(p)
	if err != nil {
		return nil, err
	}
	sncCfg := res.SNC
	sncCfg.Policy = policy
	if swPolicy == SwitchPID {
		sncCfg.PIDBits = pidBits
	}
	if err := sncCfg.Validate(); err != nil {
		return nil, err
	}
	o := NewOTP(res.Bus, res.WBuf, res.Crypto, snc.New(sncCfg))
	o.switchPolicy = swPolicy
	if swPolicy == SwitchPID {
		o.pidBits = pidBits
	}
	return o, nil
}

// checkOTPParams is the CheckParams body shared by snc-lru, snc-norepl and
// otp-precompute (otp-mac adds its verify keys on top).
func checkOTPParams(scheme string) func(Params) error {
	return func(p Params) error {
		if err := checkKeys(scheme, p, "switch", "pidbits"); err != nil {
			return err
		}
		_, _, err := otpSwitchParams(p)
		return err
	}
}

// otpMACParams validates the otp-mac parameter set (on top of the shared
// switch parameters).
func otpMACParams(p Params) (integrity.VerifyPolicy, uint64, error) {
	if err := checkKeys("otp-mac", p, "verify", "verify_lat", "switch", "pidbits"); err != nil {
		return 0, 0, err
	}
	policy, err := integrity.ParseVerifyPolicy(p.Str("verify", integrity.VerifyOverlap.String()))
	if err != nil {
		return 0, 0, err
	}
	lat, err := p.Int("verify_lat", integrity.DefaultVerifyLatency)
	if err != nil {
		return 0, 0, err
	}
	if lat <= 0 {
		return 0, 0, fmt.Errorf("core: otp-mac: verify_lat must be positive (got %d)", lat)
	}
	if _, _, err := otpSwitchParams(p); err != nil {
		return 0, 0, err
	}
	return policy, uint64(lat), nil
}

// schemes is the fixed scheme table, in listing order: the four schemes
// the paper evaluates plus the two extensions this reproduction adds.
// Adding a scheme means adding a Descriptor here.
var schemes = []Descriptor{
	{
		Name:    "baseline",
		Doc:     "insecure processor: no memory encryption (the paper's reference)",
		Aliases: []string{"base"},
		New: func(res Resources, _ Params) (Scheme, error) {
			return NewBaseline(res.Bus, res.WBuf), nil
		},
	},
	{
		Name: "xom",
		Doc:  "direct encryption on the memory critical path (Lie et al., ASPLOS 2000)",
		New: func(res Resources, _ Params) (Scheme, error) {
			return NewXOM(res.Bus, res.WBuf, res.Crypto), nil
		},
	},
	{
		Name: "snc-norepl",
		Doc: "one-time-pad encryption, no-replacement SNC; uncovered lines fall back to XOM " +
			"(switch=flush|pid, pidbits=N for multiprogramming)",
		Aliases:     []string{"norepl", "otp-norepl"},
		NeedsSNC:    true,
		CheckParams: checkOTPParams("snc-norepl"),
		New: func(res Resources, p Params) (Scheme, error) {
			return newOTPWith(res, snc.NoReplacement, p)
		},
	},
	{
		Name: "snc-lru",
		Doc: "one-time-pad encryption, LRU SNC (the paper's best scheme; " +
			"switch=flush|pid, pidbits=N for multiprogramming)",
		Aliases:     []string{"lru", "otp"},
		NeedsSNC:    true,
		CheckParams: checkOTPParams("snc-lru"),
		New: func(res Resources, p Params) (Scheme, error) {
			return newOTPWith(res, snc.LRU, p)
		},
	},
	{
		Name: "otp-mac",
		Doc: "snc-lru plus per-line MAC integrity verification " +
			"(verify=overlap|blocking, verify_lat=N; what the paper scopes out)",
		Aliases:  []string{"mac"},
		NeedsSNC: true,
		CheckParams: func(p Params) error {
			_, _, err := otpMACParams(p)
			return err
		},
		New: func(res Resources, p Params) (Scheme, error) {
			policy, lat, err := otpMACParams(p)
			if err != nil {
				return nil, err
			}
			otp, err := newOTPWith(res, snc.LRU, p)
			if err != nil {
				return nil, err
			}
			return NewOTPMAC(otp, policy, lat), nil
		},
	},
	{
		Name: "otp-precompute",
		Doc: "snc-lru plus pad retention and sequence-number prediction: " +
			"SNC hits hide crypto latency entirely (sensitivity upper bound)",
		Aliases:     []string{"precompute", "otp-pre"},
		NeedsSNC:    true,
		CheckParams: checkOTPParams("otp-precompute"),
		New: func(res Resources, p Params) (Scheme, error) {
			otp, err := newOTPWith(res, snc.LRU, p)
			if err != nil {
				return nil, err
			}
			return NewOTPPre(otp), nil
		},
	},
}
