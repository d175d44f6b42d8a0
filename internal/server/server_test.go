package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"secureproc/internal/api"
)

// testScale keeps simulations quick; the service contracts (coalescing,
// eviction, cancellation, draining) hold at any scale.
const testScale = 0.02

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Scale == 0 {
		cfg.Scale = testScale
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

func getJSON(t *testing.T, url string, dst any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

func TestRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/run", `{"bench":"gzip","scheme":"snc-lru"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr api.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rr.Spec.Bench != "gzip" || rr.Spec.Scheme != "snc-lru" {
		t.Errorf("spec echo = %+v", rr.Spec)
	}
	if rr.Spec.SNCKB != 64 || rr.Spec.L2KB != 256 || rr.Spec.Crypto != 50 {
		t.Errorf("defaults not applied: %+v", rr.Spec)
	}
	if rr.Result.Cycles == 0 || rr.Result.Instructions == 0 {
		t.Errorf("empty result: %+v", rr.Result)
	}
}

func TestRunBadRequests(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, path, body string
	}{
		{"garbage", "/v1/run", `{"bench":`},
		{"unknown field", "/v1/run", `{"bench":"gzip","scheme":"snc-lru","benhc":"x"}`},
		{"unknown bench", "/v1/run", `{"bench":"nosuch","scheme":"snc-lru"}`},
		{"unknown scheme", "/v1/run", `{"bench":"gzip","scheme":"nosuch"}`},
		{"missing scheme", "/v1/run", `{"bench":"gzip"}`},
		{"multi bench on run", "/v1/run", `{"bench":"gzip,mcf","scheme":"snc-lru"}`},
		{"bad scheme param", "/v1/run", `{"bench":"gzip","scheme":"otp-mac:verify=maybe"}`},
		// Machine geometry that names a valid bench and scheme but cannot
		// be built is the client's error, not a simulation failure.
		{"snc ways 7", "/v1/run", `{"bench":"gzip","scheme":"snc-lru","snc_ways":7}`},
		{"snc kb 0", "/v1/run", `{"bench":"gzip","scheme":"snc-lru","snc_kb":0}`},
		{"snc kb negative", "/v1/run", `{"bench":"gzip","scheme":"snc-lru","snc_kb":-4}`},
		{"l2 kb negative", "/v1/run", `{"bench":"gzip","scheme":"snc-lru","l2_kb":-1}`},
		{"l2 ways 3", "/v1/run", `{"bench":"gzip","scheme":"snc-lru","l2_ways":3}`},
		{"crypto lat 0", "/v1/run", `{"bench":"gzip","scheme":"snc-lru","crypto_lat":0}`},
		{"sweep bad geometry", "/v1/sweep", `{"specs":[{"bench":"gzip","scheme":"baseline"},{"bench":"all","scheme":"snc-lru","snc_ways":7}]}`},
	} {
		resp, body := postJSON(t, ts.URL+tc.path, tc.body)
		var env api.Envelope
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &env) != nil || env.Err.Code != api.CodeBadRequest {
			t.Errorf("%s: status %d (want 400 %s): %s", tc.name, resp.StatusCode, api.CodeBadRequest, body)
		}
	}
	// Rejected specs never reach the result memo.
	if m := srv.Runner().MemoStats(); m.Misses != 0 || m.Size != 0 {
		t.Errorf("result memo after bad requests = %+v, want no misses and no entries", m)
	}
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run: status %d, want 405", resp.StatusCode)
	}
}

// TestRunCoalescesConcurrentDuplicates is the headline service contract: N
// identical concurrent requests observe exactly one simulation. The memo's
// bookkeeping makes the assertion deterministic: every request is either
// the one miss, a coalesced waiter, or a hit on the completed entry.
func TestRunCoalescesConcurrentDuplicates(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	const n = 8
	body := `{"bench":"mcf","scheme":"snc-lru"}`
	cycles := make([]uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := postJSON(t, ts.URL+"/v1/run", body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, b)
				return
			}
			var rr api.RunResponse
			if err := json.Unmarshal(b, &rr); err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			cycles[i] = rr.Result.Cycles
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if cycles[i] != cycles[0] {
			t.Errorf("request %d saw %d cycles, request 0 saw %d", i, cycles[i], cycles[0])
		}
	}
	if sims := srv.Runner().Simulations(); sims != 1 {
		t.Errorf("%d simulations for %d identical concurrent requests, want 1", sims, n)
	}
	m := srv.MetricsSnapshot()
	rm := m.ResultMemo
	if rm.Misses != 1 {
		t.Errorf("result memo misses = %d, want 1", rm.Misses)
	}
	if rm.Coalesced+rm.Hits != n-1 {
		t.Errorf("coalesced(%d) + hits(%d) = %d, want %d (every duplicate either joined the flight or hit the memo)",
			rm.Coalesced, rm.Hits, rm.Coalesced+rm.Hits, n-1)
	}
	if m.Simulations != 1 || m.InFlightSims != 0 {
		t.Errorf("metrics: simulations=%d in_flight=%d, want 1/0", m.Simulations, m.InFlightSims)
	}
}

// TestEvictionUnderSmallCapacity drives three distinct specs through a
// capacity-1 memo and watches the LRU bound work via /metrics.
func TestEvictionUnderSmallCapacity(t *testing.T) {
	_, ts := newTestServer(t, Config{Capacity: 1})
	run := func(bench string) {
		t.Helper()
		resp, b := postJSON(t, ts.URL+"/v1/run", fmt.Sprintf(`{"bench":%q,"scheme":"baseline"}`, bench))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %s: status %d: %s", bench, resp.StatusCode, b)
		}
	}
	run("gzip")
	run("mcf")  // evicts gzip
	run("gzip") // misses again, evicts mcf
	var m api.Metrics
	getJSON(t, ts.URL+"/metrics", &m)
	rm := m.ResultMemo
	if rm.Capacity != 1 || rm.Size != 1 {
		t.Errorf("memo capacity/size = %d/%d, want 1/1", rm.Capacity, rm.Size)
	}
	if rm.Misses != 3 || rm.Evictions != 2 || rm.Hits != 0 {
		t.Errorf("memo stats = %+v, want 3 misses, 2 evictions (each new spec evicts the previous)", rm)
	}
	if m.Simulations != 3 {
		t.Errorf("simulations = %d, want 3 (evicted specs recompute)", m.Simulations)
	}
}

// TestCancelledRequestDetaches checks a client that gives up does not kill
// the shared simulation: the request errors out promptly, the simulation
// completes in the background and the next identical request is a memo hit.
func TestCancelledRequestDetaches(t *testing.T) {
	srv, ts := newTestServer(t, Config{Scale: 2.0})
	body := `{"bench":"mcf","scheme":"snc-lru"}`
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		resp.Body.Close()
		t.Skip("simulation finished inside the cancellation window; nothing to observe")
	}
	if wait := time.Since(start); wait > 5*time.Second {
		t.Errorf("cancelled request took %v to return", wait)
	}
	// The detached simulation must finish and land in the memo.
	deadline := time.Now().Add(30 * time.Second)
	for srv.Runner().Simulations() < 1 || srv.MetricsSnapshot().InFlightSims > 0 {
		if time.Now().After(deadline) {
			t.Fatal("background simulation never completed after client cancellation")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp2, b := postJSON(t, ts.URL+"/v1/run", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("follow-up: status %d: %s", resp2.StatusCode, b)
	}
	if sims := srv.Runner().Simulations(); sims != 1 {
		t.Errorf("follow-up re-simulated: %d simulations, want 1 (the cancelled request's run survived)", sims)
	}
}

func TestSweepEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{Jobs: 4})
	resp, body := postJSON(t, ts.URL+"/v1/sweep",
		`{"specs":[{"bench":"gzip,mcf","scheme":"baseline"},{"bench":"gzip","scheme":"xom"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr api.SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Count != 3 || len(sr.Results) != 3 {
		t.Fatalf("count=%d results=%d, want 3", sr.Count, len(sr.Results))
	}
	wantSpecs := []string{"gzip/baseline", "mcf/baseline", "gzip/xom"}
	for i, rr := range sr.Results {
		if got := rr.Spec.Bench + "/" + rr.Spec.Scheme; got != wantSpecs[i] {
			t.Errorf("result %d is %s, want %s", i, got, wantSpecs[i])
		}
		if rr.Result.Cycles == 0 {
			t.Errorf("result %d empty", i)
		}
	}
	if sims := srv.Runner().Simulations(); sims != 3 {
		t.Errorf("%d simulations, want 3", sims)
	}

	resp, body = postJSON(t, ts.URL+"/v1/sweep", `{"specs":[{"bench":"gzip","scheme":"nosuch"}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad sweep spec: status %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/sweep", `{"specs":[]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty sweep: status %d: %s", resp.StatusCode, body)
	}
}

// TestGracefulShutdownDrainsSweep starts a sweep, then shuts the HTTP
// server down and asserts the in-flight request completes with a full
// response (http.Server.Shutdown waits for active handlers).
func TestGracefulShutdownDrainsSweep(t *testing.T) {
	s, err := New(Config{Scale: testScale, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	type reply struct {
		status int
		body   []byte
		err    error
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := http.Post(url+"/v1/sweep", "application/json",
			strings.NewReader(`{"specs":[{"bench":"all","scheme":"snc-lru"}]}`))
		if err != nil {
			replies <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		replies <- reply{status: resp.StatusCode, body: b, err: err}
	}()

	// Wait until the sweep is actually in flight before shutting down.
	deadline := time.Now().Add(30 * time.Second)
	for s.MetricsSnapshot().ResultMemo.Misses == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("Shutdown did not drain the in-flight sweep: %v", err)
	}
	r := <-replies
	if r.err != nil {
		t.Fatalf("in-flight sweep was cut off by shutdown: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("drained sweep status %d: %s", r.status, r.body)
	}
	var sr api.SweepResponse
	if err := json.Unmarshal(r.body, &sr); err != nil {
		t.Fatalf("drained sweep body truncated: %v", err)
	}
	if sr.Count == 0 || len(sr.Results) != sr.Count {
		t.Errorf("drained sweep incomplete: %+v", sr)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
}

func TestListingsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var schemes struct {
		Schemes []api.SchemeInfo `json:"schemes"`
	}
	getJSON(t, ts.URL+"/v1/schemes", &schemes)
	found := false
	for _, d := range schemes.Schemes {
		if d.Name == "snc-lru" {
			found = true
		}
	}
	if !found {
		t.Errorf("snc-lru missing from /v1/schemes: %+v", schemes)
	}
	var benches struct {
		Benchmarks []string `json:"benchmarks"`
	}
	getJSON(t, ts.URL+"/v1/benchmarks", &benches)
	if len(benches.Benchmarks) == 0 {
		t.Error("/v1/benchmarks empty")
	}
	var health struct {
		Status string `json:"status"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "ok" {
		t.Errorf("healthz status %q", health.Status)
	}
}

func TestFigureEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 4})
	var fr api.FigureResponse
	getJSON(t, ts.URL+"/v1/figures/fig3", &fr)
	if fr.ID != "Figure 3" || !strings.Contains(fr.Rendered, "Figure 3") {
		t.Errorf("figure response %+v", fr)
	}
	resp, err := http.Get(ts.URL + "/v1/figures/fig3?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("format=text content type %q", ct)
	}
	if !bytes.Contains(b, []byte("Figure 3")) {
		t.Errorf("text rendering missing table: %s", b)
	}
	resp, err = http.Get(ts.URL + "/v1/figures/nosuch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown figure: status %d, want 404", resp.StatusCode)
	}
}

// TestStoreWarmRestart is the in-process analog of the CI warm-restart
// smoke: a server with a -store directory persists its results, and a
// replacement server over the same directory answers the same request from
// disk — zero simulations — with the store counters visible in /metrics.
func TestStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	body := `{"bench":"gzip","scheme":"snc-lru"}`

	_, ts1 := newTestServer(t, Config{StoreDir: dir})
	resp, b := postJSON(t, ts1.URL+"/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run: status %d: %s", resp.StatusCode, b)
	}
	ts1.Close()

	s2, ts2 := newTestServer(t, Config{StoreDir: dir})
	resp, b2 := postJSON(t, ts2.URL+"/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted run: status %d: %s", resp.StatusCode, b2)
	}
	if !bytes.Equal(b, b2) {
		t.Errorf("restarted response differs:\nfirst:  %s\nsecond: %s", b, b2)
	}
	var m api.Metrics
	getJSON(t, ts2.URL+"/metrics", &m)
	if m.ResultStore == nil {
		t.Fatal("/metrics missing result_store with a store configured")
	}
	if m.ResultStore.Hits != 1 {
		t.Errorf("store hits = %d, want 1", m.ResultStore.Hits)
	}
	if m.Simulations != 0 {
		t.Errorf("restarted server ran %d simulations, want 0", m.Simulations)
	}
	if s2.Runner().Store == nil {
		t.Error("runner store not wired")
	}
}

// TestMetricsWithoutStore: with no StoreDir the result_store field is
// absent, not a block of zeros masquerading as a disabled store.
func TestMetricsWithoutStore(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var raw map[string]json.RawMessage
	getJSON(t, ts.URL+"/metrics", &raw)
	if _, ok := raw["result_store"]; ok {
		t.Error("/metrics has result_store without a store configured")
	}
	if _, ok := raw["checkpoints"]; !ok {
		t.Error("/metrics missing checkpoints")
	}
	for _, gone := range []string{"speculation", "epoch_sims"} {
		if _, ok := raw[gone]; ok {
			t.Errorf("/metrics still carries the removed %q block", gone)
		}
	}
}

// replayKeyCalls numbers the calls of the replay-metrics tests below. The
// outcome, warmup and checkpoint caches are process-wide and outlive each
// test, so every call derives its cache keys from a fresh number: under
// -count=N no iteration finds what an earlier one recorded.
var replayKeyCalls atomic.Int64

// TestMetricsOutcomeReplay: /metrics reports the outcome cache, and a
// second scheme on the same benchmark replays the first one's recorded
// cache outcomes — an outcome hit — instead of recording its own. Each call
// runs at its own scale (0.0203, 0.0205, ...), one no other test uses.
func TestMetricsOutcomeReplay(t *testing.T) {
	scale := 0.0201 + 0.0002*float64(replayKeyCalls.Add(1))
	_, ts := newTestServer(t, Config{Scale: scale})
	var m0, m1, m2 api.Metrics
	getJSON(t, ts.URL+"/metrics", &m0)
	if m0.Outcomes.Capacity <= 0 {
		t.Errorf("outcomes capacity = %d, want > 0", m0.Outcomes.Capacity)
	}
	for i, scheme := range []string{"baseline", "snc-lru"} {
		resp, b := postJSON(t, ts.URL+"/v1/run", `{"bench":"gzip","scheme":"`+scheme+`"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", scheme, resp.StatusCode, b)
		}
		getJSON(t, ts.URL+"/metrics", []*api.Metrics{&m1, &m2}[i])
	}
	if d := m1.Outcomes.Misses - m0.Outcomes.Misses; d != 1 || m1.Outcomes.Hits != m0.Outcomes.Hits {
		t.Errorf("first scheme: outcome misses +%d, hits +%d; want a recording (+1 miss, +0 hits)",
			d, m1.Outcomes.Hits-m0.Outcomes.Hits)
	}
	if d := m2.Outcomes.Hits - m1.Outcomes.Hits; d != 1 || m2.Outcomes.Misses != m1.Outcomes.Misses {
		t.Errorf("second scheme: outcome hits +%d, misses +%d; want a replay (+1 hit, +0 misses)",
			d, m2.Outcomes.Misses-m1.Outcomes.Misses)
	}
	if m1.Outcomes.Bytes <= m0.Outcomes.Bytes {
		t.Errorf("outcome bytes %d -> %d across a recording; want growth", m0.Outcomes.Bytes, m1.Outcomes.Bytes)
	}
	if held := m2.Checkpoints.Bytes + m2.Outcomes.Bytes + m2.Warmups.Bytes; held > m2.Checkpoints.Capacity ||
		m2.Outcomes.Capacity != m2.Checkpoints.Capacity || m2.Warmups.Capacity != m2.Checkpoints.Capacity {
		t.Errorf("retention holds %d bytes; capacities %d, %d, %d: want one shared budget that bounds them",
			held, m2.Checkpoints.Capacity, m2.Outcomes.Capacity, m2.Warmups.Capacity)
	}
}

// TestMetricsWarmupReplay: /metrics reports the warmup outcome cache, and a
// configuration with no checkpoint replays the warmup another crypto
// latency of its benchmark recorded — a warmup hit. Each call takes its own
// pair of odd crypto latencies (65 and 67, 69 and 71, ...), ones no other
// test uses, so neither request finds a checkpoint.
func TestMetricsWarmupReplay(t *testing.T) {
	n := replayKeyCalls.Add(1)
	lats := []string{strconv.FormatInt(61+4*n, 10), strconv.FormatInt(63+4*n, 10)}
	_, ts := newTestServer(t, Config{Scale: 0.0202})
	var m0, m1, m2 api.Metrics
	getJSON(t, ts.URL+"/metrics", &m0)
	if m0.Warmups.Capacity <= 0 {
		t.Errorf("warmups capacity = %d, want > 0", m0.Warmups.Capacity)
	}
	for i, lat := range lats {
		resp, b := postJSON(t, ts.URL+"/v1/run", `{"bench":"equake","scheme":"snc-lru","crypto_lat":`+lat+`}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("crypto_lat %s: status %d: %s", lat, resp.StatusCode, b)
		}
		getJSON(t, ts.URL+"/metrics", []*api.Metrics{&m1, &m2}[i])
	}
	if d := m1.Warmups.Hits + m1.Warmups.Misses - m0.Warmups.Hits - m0.Warmups.Misses; d != 1 {
		t.Errorf("first crypto latency: warmup lookups +%d, want 1", d)
	}
	if d := m2.Warmups.Hits - m1.Warmups.Hits; d != 1 || m2.Warmups.Misses != m1.Warmups.Misses {
		t.Errorf("second crypto latency: warmup hits +%d, misses +%d; want a replay (+1 hit, +0 misses)",
			d, m2.Warmups.Misses-m1.Warmups.Misses)
	}
}
