package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"secureproc/internal/api"
)

// figureScale makes each of Figure C1's scheduler runs take a few hundred
// milliseconds, long enough to act while a figure request is mid-flight.
const figureScale = 5.0

// settle waits until no request holds admission and no figure job runs or
// waits, so a test leaves no work behind for the next one.
func settle(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := srv.Runner().DispatchStats()
		if srv.MetricsSnapshot().Dispatch.Admission.InFlight == 0 && st.BudgetUsed == 0 && st.Queued == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never settled: dispatch %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAbandonedFigureHoldsAdmission is the abandoned-figure probe: on a
// one-worker, one-admission server, figure requests whose clients leave
// after 50 ms keep their admission slot until their running simulation
// ends. So they never push the worker budget past its cap, a figure
// request sent meanwhile bounces with 429, and the goroutine count
// settles back to where it started.
func TestAbandonedFigureHoldsAdmission(t *testing.T) {
	srv, ts := newTestServer(t, Config{Jobs: 1, MaxAdmit: 1, Scale: figureScale})
	client := &http.Client{Transport: &http.Transport{}}
	base := runtime.NumGoroutine()

	maxUsed := make(chan int)
	stop := make(chan struct{})
	go func() {
		peak := 0
		for {
			peak = max(peak, srv.Runner().DispatchStats().BudgetUsed)
			select {
			case <-stop:
				maxUsed <- peak
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	var abandoned, rejected int
	for i := 0; i < 12; i++ {
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/figures/figC1", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		switch {
		case err != nil:
			abandoned++
		case resp.StatusCode == http.StatusTooManyRequests:
			rejected++
		default:
			t.Errorf("probe %d: status %d, want 429 or an abandoned request", i, resp.StatusCode)
		}
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		cancel()
		time.Sleep(50*time.Millisecond - time.Since(start))
	}
	close(stop)
	peak := <-maxUsed
	settle(t, srv)

	if st := srv.Runner().DispatchStats(); peak > st.BudgetCap {
		t.Errorf("abandoned figure requests pushed the worker budget to %d of cap %d", peak, st.BudgetCap)
	}
	if abandoned == 0 || rejected == 0 {
		t.Errorf("%d abandoned, %d rejected: a figure request sent while an abandoned one's simulation runs must get 429", abandoned, rejected)
	}
	client.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d -> %d after the figure requests settled", base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAbandonedFigureShedsQueuedJobs: on a two-worker server, a figure
// request whose client leaves sheds its queued jobs once the jobs running
// when it left finish, instead of running the rest of the figure for
// nobody.
func TestAbandonedFigureShedsQueuedJobs(t *testing.T) {
	srv, ts := newTestServer(t, Config{Jobs: 2, Scale: figureScale})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/figures/figC1", nil)
		if err != nil {
			t.Error(err)
			return
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			t.Error("figure request finished before its client left")
		}
	}()

	// Leave once the first two jobs are done and the next two run; the
	// time that took is one round of simulations.
	deadline := time.Now().Add(60 * time.Second)
	for srv.Runner().DispatchStats().Completed < 2 {
		if time.Now().After(deadline) {
			t.Fatal("figure jobs never completed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	round := time.Since(start)
	cancel()
	<-done
	left := time.Now()
	for {
		st := srv.Runner().DispatchStats()
		if st.Queued == 0 {
			break
		}
		if time.Since(left) > 2*round {
			t.Fatalf("%d figure jobs still queued %v after the client left (one round of simulations took %v)",
				st.Queued, time.Since(left), round)
		}
		time.Sleep(2 * time.Millisecond)
	}
	settle(t, srv)
}

// TestFigurePanicAnswers500: a figure whose simulations fail answers a
// 500 envelope on both the sequential and the dispatched fan-out path, and
// the service keeps serving. The absurd scale, which New refuses and is
// therefore set on the Runner afterwards, fails every simulation: the
// trace generator refuses it. That a panicking simulation fails its figure
// with an error, not a crash, is experiments' TestFigureContainsJobPanic.
func TestFigurePanicAnswers500(t *testing.T) {
	for _, jobs := range []int{1, 2} {
		srv, ts := newTestServer(t, Config{Jobs: jobs})
		srv.Runner().Scale = 1e300
		resp, err := http.Get(ts.URL + "/v1/figures/fig3")
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var env api.Envelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || err != nil || env.Err.Code != api.CodeInternal {
			t.Errorf("jobs=%d: status %d, envelope %+v (%v), want a 500 %q envelope", jobs, resp.StatusCode, env, err, api.CodeInternal)
		}
		var health api.HealthResponse
		getJSON(t, ts.URL+"/healthz", &health)
	}
}
