package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"secureproc/internal/api"
	"secureproc/internal/workload"
)

// slowScale makes one simulation take hundreds of milliseconds, wide enough
// to observe a service mid-flight (admission saturation, mid-stream
// cancellation) without sleeping on exact timings.
const slowScale = 20.0

// postStream issues a sweep request and returns the live response for
// incremental NDJSON reading. The caller owns resp.Body.
func postStream(t *testing.T, ctx context.Context, url, body, clientID string) *http.Response {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if clientID != "" {
		req.Header.Set("X-Client-ID", clientID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

// TestStreamedSweepFirstResultBeforeSweepCompletes is the acceptance test
// for streaming: with one worker and N specs, the first NDJSON line must
// land after roughly one simulation, not after all N — time-to-first-result
// is bounded by a single simulation. The proof is the runner's own counter:
// when the first line arrives, most of the sweep has not been simulated yet.
func TestStreamedSweepFirstResultBeforeSweepCompletes(t *testing.T) {
	srv, ts := newTestServer(t, Config{Jobs: 1})
	n := len(workload.BenchmarkNames)

	resp := postStream(t, context.Background(), ts.URL+"/v1/sweep",
		`{"specs":[{"bench":"all","scheme":"snc-lru"}],"stream":true}`, "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first line: %v", sc.Err())
	}
	var first api.StreamLine
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("first line %q: %v", sc.Text(), err)
	}
	if first.Error != "" || first.Result == nil || first.Result.Cycles == 0 {
		t.Fatalf("first line carries no result: %+v", first)
	}
	// The headline assertion: the first result arrived while the bulk of
	// the sweep was still unsimulated.
	if sims := srv.Runner().Simulations(); sims >= int64(n) {
		t.Errorf("first line arrived after %d of %d simulations; streaming is buffering the whole sweep", sims, n)
	}

	seen := map[int]bool{first.Index: true}
	var trailer *api.StreamTrailer
	for sc.Scan() {
		line := sc.Bytes()
		var tr api.StreamTrailer
		if err := json.Unmarshal(line, &tr); err == nil && tr.Done {
			trailer = &tr
			break
		}
		var sl api.StreamLine
		if err := json.Unmarshal(line, &sl); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if sl.Error != "" || sl.Result == nil {
			t.Errorf("line %d carries no result: %+v", sl.Index, sl)
		}
		if seen[sl.Index] {
			t.Errorf("index %d streamed twice", sl.Index)
		}
		seen[sl.Index] = true
	}
	if trailer == nil {
		t.Fatalf("stream ended without a done trailer: %v", sc.Err())
	}
	if len(seen) != n || trailer.Count != n || trailer.Error != "" {
		t.Errorf("got %d lines, trailer %+v, want %d results and a clean trailer", len(seen), trailer, n)
	}
	if sims := srv.Runner().Simulations(); sims != int64(n) {
		t.Errorf("%d simulations for %d distinct specs, want %d", sims, n, n)
	}
}

// TestStreamNegotiation pins the precedence of the two stream switches:
// the request's "stream" field beats the Accept header.
func TestStreamNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", "application/x-ndjson")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := readAll(resp)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d (%v): %s", resp.StatusCode, err, b)
		}
		return resp, b
	}

	resp, _ := post(`{"specs":[{"bench":"gzip","scheme":"baseline"}]}`)
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Accept header: Content-Type %q, want NDJSON", ct)
	}
	resp, b := post(`{"specs":[{"bench":"gzip","scheme":"baseline"}],"stream":false}`)
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf(`"stream":false with an NDJSON Accept header: Content-Type %q, want buffered JSON`, ct)
	}
	var sr api.SweepResponse
	if err := json.Unmarshal(b, &sr); err != nil || sr.Count != 1 {
		t.Errorf("buffered override response = (%+v, %v), want one buffered result", sr, err)
	}
}

// TestStreamCancellationShedsAndDetaches: a client that abandons a streamed
// sweep mid-flight must stop the stream, shed the still-queued specs, and
// leave the in-flight simulation to complete detached and memoized.
func TestStreamCancellationShedsAndDetaches(t *testing.T) {
	srv, ts := newTestServer(t, Config{Jobs: 1, Scale: slowScale})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	resp := postStream(t, ctx, ts.URL+"/v1/sweep",
		`{"specs":[{"bench":"gzip,mcf,parser","scheme":"snc-lru"}],"stream":true}`, "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	// Abandon the sweep while the first simulation is still running.
	time.Sleep(100 * time.Millisecond)
	cancel()
	if _, err := io.ReadAll(resp.Body); err == nil && srv.Runner().Simulations() >= 3 {
		t.Skip("sweep finished inside the cancellation window; nothing to observe")
	}

	// The in-flight simulation completes detached; queued specs are shed.
	deadline := time.Now().Add(30 * time.Second)
	for srv.MetricsSnapshot().InFlightSims > 0 || srv.Runner().Simulations() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight simulation never settled after cancellation")
		}
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // shed specs must not start late
	sims := srv.Runner().Simulations()
	if sims >= 3 {
		t.Skip("all specs simulated before the cancel landed; nothing to observe")
	}
	m := srv.MetricsSnapshot()
	if m.InFlightSims != 0 {
		t.Errorf("in-flight = %d after settling, want 0", m.InFlightSims)
	}
	if int64(m.ResultMemo.Size) != sims {
		t.Errorf("memo holds %d results after %d detached simulations; detached work must stay memoized", m.ResultMemo.Size, sims)
	}
	// The detached result answers the next request without re-simulating.
	resp2, b := postJSON(t, ts.URL+"/v1/run", `{"bench":"gzip","scheme":"snc-lru"}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("follow-up: status %d: %s", resp2.StatusCode, b)
	}
	if after := srv.Runner().Simulations(); after != sims {
		t.Errorf("follow-up re-simulated: %d -> %d simulations, want a memo hit", sims, after)
	}
}

// TestAdmissionCapRejectsWithRetryAfter: with -maxadmit 1, a second
// concurrent simulation request bounces immediately with 429 and a
// Retry-After estimate, while health and metrics stay reachable.
func TestAdmissionCapRejectsWithRetryAfter(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxAdmit: 1, Scale: slowScale})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	done := make(chan struct{})
	go func() {
		defer close(done)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run",
			strings.NewReader(`{"bench":"mcf","scheme":"snc-lru"}`))
		if err != nil {
			t.Error(err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		// The request is cancelled deliberately once the 429 is observed;
		// either outcome (completion or context error) is fine.
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(30 * time.Second)
	for srv.MetricsSnapshot().Dispatch.Admission.InFlight < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, body := postJSON(t, ts.URL+"/v1/run", `{"bench":"gzip","scheme":"baseline"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429: %s", resp.StatusCode, body)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want an integer >= 1", ra)
	}
	if !strings.Contains(string(body), "admission capacity") {
		t.Errorf("429 body %q does not explain the rejection", body)
	}

	// A saturated service must stay observable.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Errorf("healthz while saturated: %v", err)
	} else {
		if hr.StatusCode != http.StatusOK {
			t.Errorf("healthz while saturated: status %d", hr.StatusCode)
		}
		hr.Body.Close()
	}
	var m api.Metrics
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Dispatch.Admission.Cap != 1 || m.Dispatch.Admission.Rejected < 1 {
		t.Errorf("admission metrics = %+v, want cap 1 and >= 1 rejection", m.Dispatch.Admission)
	}

	cancel() // release the slow request; its simulation detaches
	<-done
	deadline = time.Now().Add(30 * time.Second)
	for srv.MetricsSnapshot().Dispatch.Admission.InFlight > 0 {
		if time.Now().After(deadline) {
			t.Fatal("admission slot never released after the request returned")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// With the slot free, the previously bounced spec is admitted.
	resp2, b2 := postJSON(t, ts.URL+"/v1/run", `{"bench":"gzip","scheme":"baseline"}`)
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("retry after release: status %d: %s", resp2.StatusCode, b2)
	}
}

// TestInteractiveRunNotStarvedByBulkSweep is the fairness acceptance test:
// with one worker slot and a bulk client's sweep queued many deep, an
// interactive run from a different client must be scheduled after the
// in-flight simulation, not after the whole sweep.
func TestInteractiveRunNotStarvedByBulkSweep(t *testing.T) {
	srv, ts := newTestServer(t, Config{Jobs: 1, Scale: 4.0})
	const bulkSpecs = 6

	resp := postStream(t, context.Background(), ts.URL+"/v1/sweep",
		`{"specs":[{"bench":"gzip,mcf,mesa,parser,vortex,vpr","scheme":"snc-lru"}],"stream":true}`, "bulk-client")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("sweep status %d: %s", resp.StatusCode, b)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first sweep line: %v", sc.Err())
	}

	// The sweep has ~bulkSpecs-1 jobs queued; an interactive client walks in.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", strings.NewReader(`{"bench":"art","scheme":"snc-lru"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", "interactive-client")
	irp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(irp.Body)
	irp.Body.Close()
	if irp.StatusCode != http.StatusOK {
		t.Fatalf("interactive run: status %d: %s", irp.StatusCode, b)
	}
	simsAtInteractive := srv.Runner().Simulations()

	lines := 1
	for sc.Scan() {
		var tr api.StreamTrailer
		if err := json.Unmarshal(sc.Bytes(), &tr); err == nil && tr.Done {
			break
		}
		lines++
	}
	if lines != bulkSpecs {
		t.Fatalf("bulk sweep streamed %d lines, want %d", lines, bulkSpecs)
	}
	if simsAtInteractive >= bulkSpecs+1 {
		t.Skip("bulk sweep drained before the interactive request queued; fairness not exercised")
	}
	// FIFO would have completed the interactive run last (all 7 sims done);
	// fair scheduling answers it after the in-flight bulk sim plus its own.
	if simsAtInteractive > 4 {
		t.Errorf("interactive run answered after %d simulations; a fair scheduler bounds this by the in-flight sim + its own (got starved behind the bulk queue)", simsAtInteractive)
	}
	if st := srv.Runner().DispatchStats(); st.FairnessPreemptions < 1 {
		t.Errorf("fairness preemptions = %d, want >= 1 (interactive job jumped the bulk queue)", st.FairnessPreemptions)
	}
}
