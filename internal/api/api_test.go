package api

import (
	"encoding/json"
	"testing"

	"secureproc/internal/experiments"
)

// FuzzRunRequest feeds arbitrary bytes through the request decoding path
// every /v1/run and /v1/sweep entry takes: JSON into a RunRequest, Specs
// with benchmark expansion, Validate and CanonicalKey. None of it may
// panic, every spec that resolves must lie within the experiments spec
// caps, and it must survive the fabric's forwarding form: RequestOf,
// encoded and decoded again, resolves to the same key.
func FuzzRunRequest(f *testing.F) {
	for _, body := range []string{
		`{"bench":"gzip","scheme":"snc-lru"}`,
		`{"bench":"gzip","scheme":"baseline"}`,
		`{"bench":"all","scheme":"snc-lru"}`,
		`{"bench":"gzip","scheme":"snc-lru","snc_kb":1048576}`,
		`{"bench":"gzip","scheme":"baseline","l2_kb":4194304,"l2_ways":0}`,
		`{"bench":"gzip","scheme":"xom","crypto_lat":1099511627776}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var rr RunRequest
		if json.Unmarshal(data, &rr) != nil {
			return
		}
		specs, err := rr.Specs(true)
		if err != nil {
			return
		}
		for _, s := range specs {
			if err := s.Validate(); err != nil {
				t.Fatalf("Specs resolved %+v, which Validate rejects: %v", s, err)
			}
			if s.SNCKB > experiments.MaxSNCKB || s.SNCWays > experiments.MaxSNCWays ||
				s.L2KB > experiments.MaxL2KB || s.L2Ways > experiments.MaxL2Ways ||
				s.CryptoLat > experiments.MaxCryptoLat {
				t.Fatalf("Validate accepted %+v, beyond the spec caps", s)
			}
			key := s.CanonicalKey()
			wire, err := json.Marshal(RequestOf(s))
			if err != nil {
				t.Fatal(err)
			}
			var back RunRequest
			if err := json.Unmarshal(wire, &back); err != nil {
				t.Fatalf("decoding %s: %v", wire, err)
			}
			again, err := back.Specs(false)
			if err != nil {
				t.Fatalf("forwarded form %s of valid key %s: %v", wire, key, err)
			}
			if got := again[0].CanonicalKey(); got != key {
				t.Fatalf("forwarded form %s resolves to key %s, want %s", wire, got, key)
			}
		}
	})
}
