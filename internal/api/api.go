// Package api is the versioned wire contract of the secsim service — the
// single source of truth for every request, response and error payload
// secsimd serves and every client (the bundled CLI, the cluster-forwarding
// fabric, external programs) consumes. All routes live under the /v1
// prefix; Version names the contract and travels on forwarded requests in
// the X-Secsim-Api-Version header so mixed-version fleets fail loudly
// instead of misparsing each other.
//
// # Endpoints
//
//	POST /v1/run              RunRequest  -> RunResponse
//	POST /v1/sweep            SweepRequest -> SweepResponse, or an NDJSON
//	                          stream of StreamLine values ending in a
//	                          StreamTrailer (see SweepRequest.Stream)
//	GET  /v1/figures/{name}   FigureResponse (?format=text for plain text)
//	GET  /v1/schemes          SchemesResponse
//	GET  /v1/benchmarks       BenchmarksResponse
//	GET  /v1/cluster/stats    NodeStats (this node's cluster counters)
//	GET  /healthz             HealthResponse
//	GET  /metrics             Metrics
//
// # Errors
//
// Every error response is an Envelope: a JSON object whose "error" field
// carries a stable machine-readable Code, a human-readable Message, and —
// for CodeOverloaded — the same retry estimate the Retry-After header
// carries, as retry_after_s in the body. See error.go for the code table.
//
// # Requests
//
// A RunRequest names a benchmark and a protection scheme; omitted tuning
// fields default to the paper's standard configuration (64KB fully
// associative SNC, 256KB 4-way L2, 50-cycle crypto). Responses echo the
// fully resolved Spec so callers never have to reimplement defaulting.
package api

import (
	"fmt"

	"secureproc/internal/experiments"
	"secureproc/internal/sim"
)

// Version is the wire-contract version. It is the path prefix of every
// endpoint ("/" + Version + "/run") and the value of the
// HeaderAPIVersion header on forwarded intra-cluster requests.
const Version = "v1"

// Cluster request headers. Hops counts forwards a request has taken
// through the fabric (absent or 0 = came straight from a client);
// HeaderAPIVersion pins the wire contract on forwarded requests.
const (
	HeaderHops       = "X-Secsim-Hops"
	HeaderAPIVersion = "X-Secsim-Api-Version"
	// HeaderClientID tags requests with a fairness owner; the fabric
	// propagates it on forwards so a client keeps one queue fleet-wide.
	HeaderClientID = "X-Client-ID"
)

// RunRequest is the wire form of one simulation request (POST /v1/run) and
// of each entry in a sweep's spec list. Omitted pointer fields default to
// the paper's standard configuration. In sweep requests Bench may also be
// a comma-separated list or "all", expanding to one spec per benchmark.
type RunRequest struct {
	Bench  string  `json:"bench"`
	Scheme string  `json:"scheme"`
	SNCKB  *int    `json:"snc_kb,omitempty"`
	SNCWay *int    `json:"snc_ways,omitempty"`
	L2KB   *int    `json:"l2_kb,omitempty"`
	L2Way  *int    `json:"l2_ways,omitempty"`
	Crypto *uint64 `json:"crypto_lat,omitempty"`
}

// Spec is the canonical echo of a resolved spec in responses: every field
// populated, the scheme in canonical registry form.
type Spec struct {
	Bench  string `json:"bench"`
	Scheme string `json:"scheme"`
	SNCKB  int    `json:"snc_kb"`
	SNCWay int    `json:"snc_ways"`
	L2KB   int    `json:"l2_kb"`
	L2Way  int    `json:"l2_ways"`
	Crypto uint64 `json:"crypto_lat"`
}

// SpecOf renders a resolved experiments.Spec in wire form.
func SpecOf(s experiments.Spec) Spec {
	return Spec{
		Bench:  s.Bench,
		Scheme: s.Scheme.Canonical(),
		SNCKB:  s.SNCKB,
		SNCWay: s.SNCWays,
		L2KB:   s.L2KB,
		L2Way:  s.L2Ways,
		Crypto: s.CryptoLat,
	}
}

// RequestOf renders a resolved spec back into a fully-pinned RunRequest —
// the form the cluster fabric forwards, so the owning peer resolves the
// exact same configuration regardless of its own defaults.
func RequestOf(s experiments.Spec) RunRequest {
	snc, ways, l2, l2w, cl := s.SNCKB, s.SNCWays, s.L2KB, s.L2Ways, s.CryptoLat
	return RunRequest{
		Bench:  s.Bench,
		Scheme: s.Scheme.Canonical(),
		SNCKB:  &snc,
		SNCWay: &ways,
		L2KB:   &l2,
		L2Way:  &l2w,
		Crypto: &cl,
	}
}

// Specs resolves the request against the workload and scheme registries,
// applying paper defaults to omitted fields. With expandBench, the Bench
// field may be a comma-separated list or "all" (one spec per benchmark);
// without it, exactly one benchmark is required — the /v1/run contract.
func (rr RunRequest) Specs(expandBench bool) ([]experiments.Spec, error) {
	if rr.Bench == "" {
		return nil, fmt.Errorf("spec needs a bench")
	}
	if rr.Scheme == "" {
		return nil, fmt.Errorf("spec needs a scheme")
	}
	benches, err := experiments.ExpandBenches(rr.Bench)
	if err != nil {
		return nil, err
	}
	if !expandBench && len(benches) != 1 {
		return nil, fmt.Errorf("run wants exactly one benchmark, got %d (%q); use /v1/sweep for lists", len(benches), rr.Bench)
	}
	ref, err := sim.SchemeByName(rr.Scheme)
	if err != nil {
		return nil, err
	}
	out := make([]experiments.Spec, 0, len(benches))
	for _, b := range benches {
		s := experiments.DefaultSpec(b, ref)
		if rr.SNCKB != nil {
			s.SNCKB = *rr.SNCKB
		}
		if rr.SNCWay != nil {
			s.SNCWays = *rr.SNCWay
		}
		if rr.L2KB != nil {
			s.L2KB = *rr.L2KB
		}
		if rr.L2Way != nil {
			s.L2Ways = *rr.L2Way
		}
		if rr.Crypto != nil {
			s.CryptoLat = *rr.Crypto
		}
		if err := s.Validate(); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// RunResponse is the /v1/run payload.
type RunResponse struct {
	Spec   Spec       `json:"spec"`
	Result sim.Result `json:"result"`
}

// SweepRequest is the /v1/sweep payload: a list of specs, each expandable
// over benchmarks ("bench": "all" or "gzip,mcf"). Stream, when set,
// chooses a streamed (true) or buffered (false) answer and takes
// precedence over an "Accept: application/x-ndjson" header.
type SweepRequest struct {
	Specs  []RunRequest `json:"specs"`
	Stream *bool        `json:"stream,omitempty"`
}

// SweepResponse reports every resolved spec with its result, in request
// order (benchmark expansion preserves benchmark order).
type SweepResponse struct {
	Count   int           `json:"count"`
	Results []RunResponse `json:"results"`
}

// StreamLine is one NDJSON line of a streamed sweep: spec i's outcome,
// emitted the moment its simulation lands. Lines arrive in completion
// order, not request order; Index maps each back to the expanded spec
// list. Exactly one of Result and Error is set.
type StreamLine struct {
	Index  int         `json:"index"`
	Spec   Spec        `json:"spec"`
	Result *sim.Result `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// StreamTrailer terminates a streamed sweep: Count results landed; Error
// reports a failure that shed the remaining specs.
type StreamTrailer struct {
	Done  bool   `json:"done"`
	Count int    `json:"count"`
	Error string `json:"error,omitempty"`
}

// FigureResponse is the /v1/figures/{name} payload.
type FigureResponse struct {
	Name     string `json:"name"`
	ID       string `json:"id"`
	Title    string `json:"title"`
	Rendered string `json:"rendered"`
}

// SchemeInfo is one /v1/schemes entry.
type SchemeInfo struct {
	Name    string   `json:"name"`
	Doc     string   `json:"doc"`
	Aliases []string `json:"aliases,omitempty"`
}

// SchemesResponse is the /v1/schemes payload.
type SchemesResponse struct {
	Schemes []SchemeInfo `json:"schemes"`
}

// BenchmarksResponse is the /v1/benchmarks payload.
type BenchmarksResponse struct {
	Benchmarks []string `json:"benchmarks"`
}

// HealthResponse is the /healthz payload.
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}
