package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"secureproc/internal/api"
)

// TestNewRejectsUnusableScale: New refuses a scale at which some
// benchmark's trace cannot be generated, instead of booting a service that
// answers every simulation request with an error; 0 still means 1.0.
func TestNewRejectsUnusableScale(t *testing.T) {
	for _, tc := range []struct {
		scale float64
		ok    bool
	}{
		{0, true},
		{testScale, true},
		{4, true},
		{-1, false},
		{math.NaN(), false},
		{math.Inf(1), false},
		{1e12, false},
		{1e300, false},
	} {
		_, err := New(Config{Scale: tc.scale})
		if (err == nil) != tc.ok {
			t.Errorf("New(Scale %g) error = %v, want ok=%v", tc.scale, err, tc.ok)
		}
	}
}

// TestRunMatchesOneSpecSweep: /v1/run is a one-spec sweep, so its result
// is byte-identical to the entry a one-spec /v1/sweep returns.
func TestRunMatchesOneSpecSweep(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := `{"bench":"mcf","scheme":"otp-mac:verify=blocking","crypto_lat":102}`
	resp, run := postJSON(t, ts.URL+"/v1/run", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, run)
	}
	resp, sweep := postJSON(t, ts.URL+"/v1/sweep", `{"specs":[`+spec+`]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, sweep)
	}
	var rr struct {
		Result json.RawMessage `json:"result"`
	}
	var sr struct {
		Results []struct {
			Result json.RawMessage `json:"result"`
		} `json:"results"`
	}
	if err := json.Unmarshal(run, &rr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(sweep, &sr); err != nil || len(sr.Results) != 1 {
		t.Fatalf("sweep body %s: %v", sweep, err)
	}
	// Bodies are indented, and a sweep's result sits one level deeper.
	var a, b bytes.Buffer
	if json.Compact(&a, rr.Result) != nil || json.Compact(&b, sr.Results[0].Result) != nil {
		t.Fatalf("undecodable results in %s and %s", run, sweep)
	}
	if a.String() != b.String() {
		t.Errorf("run result\n%s\ndiffers from one-spec sweep result\n%s", &a, &b)
	}
}

// TestCancelledQueuedRunSheds: on a one-worker server, a /v1/run whose
// client leaves while its job waits behind another simulation never
// simulates. The request holds its admission slot until its job is shed,
// then releases it.
func TestCancelledQueuedRunSheds(t *testing.T) {
	srv, ts := newTestServer(t, Config{Jobs: 1, Scale: figureScale})
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	busy := make(chan int)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(`{"bench":"mcf","scheme":"baseline"}`))
		if err != nil {
			busy <- 0
			return
		}
		resp.Body.Close()
		busy <- resp.StatusCode
	}()
	waitFor("the first run to take the worker", func() bool { return srv.Runner().DispatchStats().Running == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", strings.NewReader(`{"bench":"gzip","scheme":"xom"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	left := make(chan error)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		left <- err
	}()
	waitFor("the second run to queue", func() bool { return srv.Runner().DispatchStats().Queued == 1 })
	cancel()
	if err := <-left; err == nil {
		t.Fatal("cancelled run got an answer")
	}
	if status := <-busy; status != http.StatusOK {
		t.Fatalf("first run: status %d", status)
	}
	waitFor("admission to drain", func() bool { return srv.MetricsSnapshot().Dispatch.Admission.InFlight == 0 })

	st := srv.Runner().DispatchStats()
	if st.Completed != 2 || st.Queued != 0 || st.BudgetUsed != 0 {
		t.Errorf("dispatch %+v, want both jobs completed (the second shed) and nothing held", st)
	}
	if n := srv.Runner().Simulations(); n != 1 {
		t.Errorf("%d simulations, want 1: the cancelled run must not simulate", n)
	}
	if n := srv.Runner().MemoStats().Size; n != 1 {
		t.Errorf("memo holds %d results, want 1", n)
	}
}

// TestClusterForwardedRunIsOneSpecSweep: a run forwarded to its owner
// travels as a one-spec sub-sweep, counted on the owner as a sweep, and
// the entry node's answer is byte-identical to a single node's.
func TestClusterForwardedRunIsOneSpecSweep(t *testing.T) {
	sa, sb, tsa, _ := newClusterPair(t, Config{})
	body := peerOwnedBody(t, sa)
	resp, fwd := postJSON(t, tsa.URL+"/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded run: status %d: %s", resp.StatusCode, fwd)
	}
	if sims := sb.Runner().Simulations(); sims != 1 {
		t.Fatalf("owner ran %d simulations, want 1", sims)
	}
	if got := sb.MetricsSnapshot().Requests; got["sweep"] != 1 || got["run"] != 0 {
		t.Errorf("owner requests_total sweep=%d run=%d, want 1 and 0", got["sweep"], got["run"])
	}

	_, ts := newTestServer(t, Config{})
	resp, single := postJSON(t, ts.URL+"/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-node run: status %d: %s", resp.StatusCode, single)
	}
	if string(fwd) != string(single) {
		t.Errorf("forwarded run body\n%s\ndiffers from the single-node body\n%s", fwd, single)
	}
	var rr api.RunResponse
	if err := json.Unmarshal(fwd, &rr); err != nil || rr.Result.Cycles == 0 {
		t.Errorf("forwarded run body %s does not hold a result (%v)", fwd, err)
	}
}
