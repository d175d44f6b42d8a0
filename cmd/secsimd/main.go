// Command secsimd serves the simulation engine over HTTP: a long-lived
// process in front of the experiment layer's singleflight memo, so
// concurrent clients asking for the same configuration share one
// simulation and repeated requests are answered from the result memo
// (LRU-bounded by -memo-capacity).
//
// Usage:
//
//	secsimd [-addr :8080] [-scale 1.0] [-jobs N] [-memo-capacity 0]
//	        [-drain 30s] [-store DIR] [-maxadmit 0]
//	        [-peers host:port,... -self host:port]
//
// -scale must be positive and finite and keep every benchmark's trace
// within the workload package's record cap; otherwise secsimd exits at boot
// instead of failing every simulation request.
//
// With -maxadmit N > 0, at most N simulation requests (/v1/run, /v1/sweep,
// /v1/figures) are admitted concurrently; request N+1 is rejected
// immediately with 429 and a Retry-After estimate instead of queueing
// unboundedly. Admitted work is scheduled weighted-fair per client
// (X-Client-ID header, else remote host), so one bulk sweep cannot starve
// interactive one-spec requests (/v1/run, or a /v1/sweep of one spec).
//
// A /v1/sweep request with "stream":true, or with an "Accept:
// application/x-ndjson" header, answers as an NDJSON stream — one line per
// result the moment its simulation lands, then a trailer. The body field
// wins over the header.
//
// With -store, completed simulation results are persisted under DIR (keyed
// by run configuration and the timing-model version) and survive restarts:
// a rebooted secsimd answers previously-computed requests from disk instead
// of re-simulating. Damaged or stale entries fall back to recompute.
//
// With -peers, the node joins a static fleet: every member lists the same
// membership, each request's canonical run key is hashed onto a consistent
// ring, and requests owned by another member forward there — so the
// fleet's result memos partition exactly-once across instances instead of
// duplicating. -self is this node's advertised host:port on the ring (it
// must appear in the other members' -peers lists). A request that has
// already been forwarded cluster.HopLimit (3) times is served locally (the
// loop guard for misconfigured rings), and an unreachable owner degrades
// the request to local execution after one retry — never to a failure. A
// malformed spec is rejected with 400 at the entry node. Cluster
// counters, per-peer health and a fleet-wide rollup appear under
// "cluster" in /metrics.
//
// The wire contract (request/response/error payloads for every endpoint)
// is defined in internal/api; see that package's documentation for the
// authoritative reference. Endpoints:
//
//	POST /v1/run              one spec -> simulation result
//	POST /v1/sweep            spec list (bench may be "all" or a,b,c)
//	GET  /v1/figures/{name}   rendered figure table (?format=text)
//	GET  /v1/schemes          registered protection schemes
//	GET  /v1/benchmarks       benchmark names
//	GET  /v1/cluster/stats    this node's cluster counters (fleet mode)
//	GET  /healthz             liveness
//	GET  /metrics             memo size, hit/miss/coalesced/eviction
//	                          counts, in-flight simulations, cluster rollup
//
// A client must finish sending its request headers within
// readHeaderTimeout, and an idle keep-alive connection is closed after
// idleTimeout, and must finish sending its request body within the
// server's fixed body-read bound, so stalled clients cannot pin connections
// or admission slots. Responses are not time-bounded: streamed sweeps are
// long-lived.
//
// On SIGINT/SIGTERM the server stops accepting connections and drains
// in-flight requests for up to -drain before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"secureproc/internal/cluster"
	"secureproc/internal/server"
)

// Connection timeouts against slow or stalled clients (see the package
// documentation).
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the listener-side server around h. Only header
// reads and idle keep-alives are bounded here (the server package bounds
// body reads itself); ReadTimeout and WriteTimeout stay unset because a
// streamed sweep legitimately runs for minutes.
func newHTTPServer(addr string, h http.Handler, headerTimeout, idle time.Duration) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: headerTimeout, IdleTimeout: idle}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	scale := flag.Float64("scale", 1.0, "workload scale for every simulation")
	jobs := flag.Int("jobs", 0, "concurrent simulations in sweep fan-out (0 = GOMAXPROCS)")
	capacity := flag.Int("memo-capacity", 0, "result-memo LRU capacity in entries (0 = unbounded)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
	storeDir := flag.String("store", "", "persist results in this directory across restarts (empty = off)")
	maxAdmit := flag.Int("maxadmit", 0, "concurrently admitted simulation requests before 429 + Retry-After (0 = unbounded)")
	peers := flag.String("peers", "", "comma-separated fleet members (host:port,...); enables cluster sharding")
	self := flag.String("self", "", "this node's advertised host:port on the ring (required with -peers)")
	flag.Parse()

	srv, err := server.New(server.Config{
		Scale:    *scale,
		Jobs:     *jobs,
		Capacity: *capacity,
		StoreDir: *storeDir,
		MaxAdmit: *maxAdmit,
	})
	if err != nil {
		log.Fatalf("secsimd: %v", err)
	}
	clusterNote := "off"
	if *peers != "" {
		var members []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				members = append(members, p)
			}
		}
		if err := srv.EnableCluster(cluster.Config{Self: *self, Peers: members}); err != nil {
			log.Fatalf("secsimd: %v", err)
		}
		clusterNote = *self + " in {" + *peers + "}"
	}
	hs := newHTTPServer(*addr, srv, readHeaderTimeout, idleTimeout)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	storeNote := "off"
	if *storeDir != "" {
		storeNote = *storeDir
	}
	log.Printf("secsimd listening on %s (scale %.2f, jobs %d, memo capacity %d, store %s, maxadmit %d, cluster %s)",
		*addr, *scale, *jobs, *capacity, storeNote, *maxAdmit, clusterNote)

	select {
	case err := <-errc:
		log.Fatalf("secsimd: %v", err)
	case <-ctx.Done():
	}
	log.Printf("secsimd: shutting down, draining in-flight requests (up to %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		log.Fatalf("secsimd: shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("secsimd: %v", err)
	}
	log.Print("secsimd: drained, bye")
}
