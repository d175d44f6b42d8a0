package server

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the wire golden files")

// goldenDir lets CI's golden-drift guard regenerate the wire goldens into a
// scratch directory (`-update -goldendir /tmp/x`) and diff against the
// checked-in testdata, instead of overwriting it.
var goldenDir = flag.String("goldendir", filepath.Join("testdata", "wire"), "directory wire golden files are read from / written to")

// wireGoldenScale is the workload scale the wire goldens are generated at.
const wireGoldenScale = 0.05

// wireCase is one request of the wire goldens.
type wireCase struct {
	name, method, path string
	header             map[string]string
	body               string
}

// wireCases pins the /v1 contract byte for byte: a run under every scheme,
// two SNC associativities, two parameterized scheme references (one an
// alias with spaces, unsorted keys and a repeated key, echoed in canonical
// form), a buffered multi-spec and a one-spec sweep, the scheme and
// benchmark listings, and one envelope per error class a client is
// expected to handle.
func wireCases() []wireCase {
	var cs []wireCase
	for _, scheme := range []string{"baseline", "xom", "snc-lru", "snc-norepl", "otp-mac", "otp-precompute"} {
		cs = append(cs, wireCase{name: "run-" + scheme, method: http.MethodPost, path: "/v1/run",
			body: `{"bench":"mcf","scheme":"` + scheme + `"}`})
	}
	for _, ways := range []int{1, 2} {
		cs = append(cs, wireCase{name: fmt.Sprintf("run-snc-lru-%dway", ways), method: http.MethodPost, path: "/v1/run",
			body: fmt.Sprintf(`{"bench":"mcf","scheme":"snc-lru","snc_ways":%d}`, ways)})
	}
	return append(cs,
		wireCase{name: "run-alias-params", method: http.MethodPost, path: "/v1/run",
			body: `{"bench":"mcf","scheme":"mac: verify_lat=120 ,verify=overlap,verify=blocking"}`},
		wireCase{name: "run-snc-lru-pid", method: http.MethodPost, path: "/v1/run",
			body: `{"bench":"mcf","scheme":"snc-lru:switch=pid,pidbits=4"}`},
		wireCase{name: "schemes", method: http.MethodGet, path: "/v1/schemes"},
		wireCase{name: "benchmarks", method: http.MethodGet, path: "/v1/benchmarks"},
		wireCase{name: "error-unknown-param", method: http.MethodPost, path: "/v1/run",
			body: `{"bench":"mcf","scheme":"otp-mac:frobnicate=1"}`},
		// With several unknown parameters the envelope names the first in
		// sorted key order, every time.
		wireCase{name: "error-unknown-params", method: http.MethodPost, path: "/v1/run",
			body: `{"bench":"mcf","scheme":"otp-mac:zap=2,frobnicate=1"}`},
		wireCase{name: "sweep-two-specs", method: http.MethodPost, path: "/v1/sweep",
			body: `{"specs":[{"bench":"gzip","scheme":"xom"},{"bench":"art","scheme":"snc-lru","crypto_lat":102}]}`},
		wireCase{name: "sweep-one-spec", method: http.MethodPost, path: "/v1/sweep",
			body: `{"specs":[{"bench":"mcf","scheme":"otp-mac:verify=blocking"}]}`},
		wireCase{name: "error-oversize-spec", method: http.MethodPost, path: "/v1/run",
			body: `{"bench":"mcf","scheme":"snc-lru","snc_kb":1048576}`},
		wireCase{name: "error-unknown-figure", method: http.MethodGet, path: "/v1/figures/nope"},
		wireCase{name: "error-wrong-method", method: http.MethodGet, path: "/v1/run"},
		wireCase{name: "error-api-version", method: http.MethodPost, path: "/v1/run",
			header: map[string]string{"X-Secsim-Api-Version": "v999"},
			body:   `{"bench":"mcf","scheme":"snc-lru"}`},
	)
}

// wireHeaders are the response headers a golden records; Date and
// Content-Length say nothing about the contract.
var wireHeaders = []string{"Content-Type", "Allow", "Retry-After"}

// exchange sends c to base and renders the request and its response as one
// golden document.
func exchange(t *testing.T, base string, c wireCase) string {
	t.Helper()
	req, err := http.NewRequest(c.method, base+c.path, strings.NewReader(c.body))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s\n", c.method, c.path)
	if c.body != "" {
		req.Header.Set("Content-Type", "application/json")
		fmt.Fprintf(&b, "Content-Type: application/json\n")
	}
	for k, v := range c.header {
		req.Header.Set(k, v)
		fmt.Fprintf(&b, "%s: %s\n", k, v)
	}
	b.WriteString("\n")
	if c.body != "" {
		fmt.Fprintf(&b, "%s\n\n", c.body)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: read body: %v", c.name, err)
	}
	fmt.Fprintf(&b, "HTTP %d\n", resp.StatusCode)
	for _, h := range wireHeaders {
		if v := resp.Header.Get(h); v != "" {
			fmt.Fprintf(&b, "%s: %s\n", h, v)
		}
	}
	fmt.Fprintf(&b, "\n%s", body)
	return b.String()
}

// TestWireGoldens compares each request's status, contract headers and
// body byte for byte against the checked-in goldens, so a renamed JSON tag,
// a changed number format or a reordered result fails here instead of in a
// client.
func TestWireGoldens(t *testing.T) {
	_, ts := newTestServer(t, Config{Scale: wireGoldenScale, Jobs: 2})
	if *update {
		if err := os.MkdirAll(*goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range wireCases() {
		got := exchange(t, ts.URL, c)
		path := filepath.Join(*goldenDir, c.name+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to generate)", c.name, err)
		}
		if got != string(want) {
			t.Errorf("%s: exchange differs from %s (run with -update after intended changes)\ngot:\n%s", c.name, path, got)
		}
	}
}
