// Package cluster is the distributed sweep fabric: a consistent-hash ring
// over canonical run keys that routes every simulation request to the one
// secsimd instance owning it, so the fleet's result/trace memos and
// checkpoint caches partition exactly-once instead of duplicating on every
// node.
//
// The fabric is deliberately robustness-shaped rather than
// consensus-shaped: membership is static (-peers), routing is stateless
// (every member hashes identically, so any node answers any request by
// forwarding at most once on a consistent ring), a hop-limit header bounds
// the damage of an inconsistent ring to a handful of forwards, and a peer
// that stops answering degrades the fleet to local execution — requests
// never fail because a shard is down, they just lose the partitioning
// benefit until the peer's cooldown expires. The wire contract between
// peers is the public internal/api one; there is no private protocol.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"secureproc/internal/api"
)

// HopLimit bounds forwarding chains. On a consistent ring a request
// forwards at most once; the budget of 3 leaves room for one resize
// transient before the loop guard serves locally.
const HopLimit = 3

const (
	// forwardTimeout bounds one forwarded request end to end — generous,
	// because the owner may be simulating from cold.
	forwardTimeout = 2 * time.Minute
	// cooldown is how long a peer stays marked down after a failed
	// forward before traffic probes it again.
	cooldown = 2 * time.Second
	// rollupTimeout bounds each peer poll of a /metrics fleet rollup; a
	// metrics scrape must stay fast even when half the fleet is gone.
	rollupTimeout = 1 * time.Second
)

// Config describes this node's view of the fleet.
type Config struct {
	// Self is this node's advertised address (host:port) — the identity
	// other members route to. It must appear in every member's Peers list
	// (it is added to this node's own ring automatically).
	Self string
	// Peers is the static fleet membership, self included or not.
	Peers []string
}

// peerState tracks one remote member: health cooldown and per-peer traffic.
type peerState struct {
	downUntil atomic.Int64 // unix nanos; peer is down until this instant
	forwarded atomic.Int64
	fallback  atomic.Int64
	retries   atomic.Int64
}

// Fabric routes run keys across the fleet and forwards requests to their
// owners. Safe for concurrent use; all methods are cheap except the
// forwarding calls themselves.
type Fabric struct {
	self   string
	ring   *ring
	client *http.Client

	peers map[string]*peerState // remote members only, fixed at New

	// Node-wide counters (per-peer ones live in peerState).
	forwarded       atomic.Int64
	servedForwarded atomic.Int64
	fallback        atomic.Int64
	retries         atomic.Int64
	hopStops        atomic.Int64
}

// New builds the fabric. It fails only on an unusable membership (no self,
// or a single-member ring that could never forward — run without -peers
// instead).
func New(cfg Config) (*Fabric, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: -peers needs -self (this node's advertised host:port)")
	}
	members := append([]string{cfg.Self}, cfg.Peers...)
	r := newRing(members)
	if len(r.members()) < 2 {
		return nil, fmt.Errorf("cluster: membership needs at least one peer besides self (got only %q)", cfg.Self)
	}
	f := &Fabric{
		self:   cfg.Self,
		ring:   r,
		client: &http.Client{Timeout: forwardTimeout},
		peers:  make(map[string]*peerState),
	}
	for _, m := range r.members() {
		if m != cfg.Self {
			f.peers[m] = &peerState{}
		}
	}
	return f, nil
}

// Self returns this node's advertised address.
func (f *Fabric) Self() string { return f.self }

// Owner resolves the ring member owning key; local reports whether that
// member is this node.
func (f *Fabric) Owner(key string) (addr string, local bool) {
	addr = f.ring.owner(key)
	return addr, addr == f.self || addr == ""
}

// healthy reports whether the peer is outside its failure cooldown.
func (f *Fabric) healthy(ps *peerState) bool {
	return time.Now().UnixNano() >= ps.downUntil.Load()
}

// markDown starts (or extends) the peer's cooldown after a failed forward.
func (f *Fabric) markDown(ps *peerState) {
	ps.downUntil.Store(time.Now().Add(cooldown).UnixNano())
}

// NoteServedForwarded counts a request this node executed on behalf of a
// forwarding peer (the server calls it when a request arrives with hops).
func (f *Fabric) NoteServedForwarded() { f.servedForwarded.Add(1) }

// NoteHopLimit counts a request served locally because its hop budget was
// exhausted — the loop guard for inconsistent rings.
func (f *Fabric) NoteHopLimit() { f.hopStops.Add(1) }

// Forward POSTs a sub-sweep to the owner's /v1/sweep and decodes its 200
// answer. Every forward is a sweep: a /v1/run travels as a one-spec
// sub-sweep, so the owner weighs it as a run (weight follows request size).
//
// The outcome is a three-way contract:
//   - ok=true, apiErr=nil: out holds the owner's answer.
//   - ok=true, apiErr!=nil: the owner answered with a clean API error
//     (bad spec, admission 429, ...) — propagate it to the client; the
//     peer is healthy and falling back locally would be wrong (a 429
//     bypassed locally would defeat the owner's admission control).
//   - ok=false: the owner is unreachable or broken (network error, 5xx,
//     undecodable body) after one retry. The peer enters its cooldown and
//     the caller must execute locally — the degraded-never-failing path.
//
// A cancelled ctx returns ok=false without counting a fallback or marking
// the peer down: the client gave up, the peer did nothing wrong.
func (f *Fabric) Forward(ctx context.Context, owner string, hops int, clientID string, body api.SweepRequest) (out api.SweepResponse, apiErr *api.Error, ok bool) {
	ps := f.peers[owner]
	if ps == nil {
		// Not a known member (inconsistent ring naming a stranger): treat
		// as unreachable, run locally.
		f.fallback.Add(1)
		return out, nil, false
	}
	if !f.healthy(ps) {
		f.fallback.Add(1)
		ps.fallback.Add(1)
		return out, nil, false
	}
	payload, err := json.Marshal(body)
	if err != nil {
		f.fallback.Add(1)
		ps.fallback.Add(1)
		return out, nil, false
	}
	for attempt := 0; ; attempt++ {
		var retryable bool
		out, apiErr, retryable, err = f.post(ctx, owner, hops, clientID, payload)
		if err == nil {
			if attempt == 0 {
				f.forwarded.Add(1)
				ps.forwarded.Add(1)
			}
			return out, apiErr, true
		}
		if ctx.Err() != nil {
			return out, nil, false
		}
		if retryable && attempt == 0 {
			f.retries.Add(1)
			ps.retries.Add(1)
			continue
		}
		f.markDown(ps)
		f.fallback.Add(1)
		ps.fallback.Add(1)
		return out, nil, false
	}
}

// post is one forward attempt. It returns a nil err on a usable answer —
// a 200 decoded into out, or a non-2xx envelope in apiErr to propagate —
// and a non-nil err on transport/5xx/decoding failures, with retryable
// saying whether a second attempt is worthwhile.
func (f *Fabric) post(ctx context.Context, owner string, hops int, clientID string, payload []byte) (out api.SweepResponse, apiErr *api.Error, retryable bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+owner+"/"+api.Version+"/sweep", bytes.NewReader(payload))
	if err != nil {
		return out, nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.HeaderAPIVersion, api.Version)
	req.Header.Set(api.HeaderHops, fmt.Sprint(hops+1))
	if clientID != "" {
		req.Header.Set(api.HeaderClientID, clientID)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return out, nil, true, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return out, nil, true, err
	}
	switch {
	case resp.StatusCode >= 500:
		return out, nil, true, fmt.Errorf("cluster: peer %s: status %d", owner, resp.StatusCode)
	case resp.StatusCode >= 300:
		return out, api.ErrorFromBody(resp.StatusCode, b), false, nil
	}
	if out, err = decodeBody(b); err != nil {
		return out, nil, false, fmt.Errorf("cluster: peer %s: %w", owner, err)
	}
	return out, nil, false, nil
}

// decodeBody decodes a peer's 200 answer to a forwarded sub-sweep. The
// body is untrusted input.
func decodeBody(b []byte) (api.SweepResponse, error) {
	var out api.SweepResponse
	if err := json.Unmarshal(b, &out); err != nil {
		return out, fmt.Errorf("undecodable response: %w", err)
	}
	return out, nil
}

// maxStatsBytes bounds how much of a peer's /v1/cluster/stats answer a
// rollup reads: a NodeStats encodes in a few hundred bytes.
const maxStatsBytes = 64 << 10

// decodeNodeStats decodes a peer's answer to a /v1/cluster/stats poll,
// reading at most maxStatsBytes of the untrusted body. ok is false for a
// status other than 200 or a body that is not a NodeStats.
func decodeNodeStats(status int, body io.Reader) (ns api.NodeStats, ok bool) {
	if status != http.StatusOK {
		return api.NodeStats{}, false
	}
	if err := json.NewDecoder(io.LimitReader(body, maxStatsBytes)).Decode(&ns); err != nil {
		return api.NodeStats{}, false
	}
	return ns, true
}

// LocalStats assembles this node's cluster counter block; sims is the
// runner's simulations_total (owned by the caller, not the fabric).
func (f *Fabric) LocalStats(sims int64) api.NodeStats {
	return api.NodeStats{
		Self:            f.self,
		Simulations:     sims,
		Forwarded:       f.forwarded.Load(),
		ServedForwarded: f.servedForwarded.Load(),
		Fallback:        f.fallback.Load(),
		Retries:         f.retries.Load(),
		HopLimitStops:   f.hopStops.Load(),
	}
}

// PeerMetrics lists every remote member with health and per-peer traffic,
// in address order.
func (f *Fabric) PeerMetrics() []api.PeerMetrics {
	addrs := make([]string, 0, len(f.peers))
	for a := range f.peers {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	out := make([]api.PeerMetrics, 0, len(addrs))
	for _, a := range addrs {
		ps := f.peers[a]
		out = append(out, api.PeerMetrics{
			Addr:      a,
			Healthy:   f.healthy(ps),
			Forwarded: ps.forwarded.Load(),
			Fallback:  ps.fallback.Load(),
			Retries:   ps.retries.Load(),
		})
	}
	return out
}

// Rollup polls every remote member's /v1/cluster/stats and sums the fleet
// totals, local included. Unreachable members are listed rather than
// failing the rollup — a metrics scrape must work on a degraded fleet.
// Polls run concurrently under a short per-poll timeout.
func (f *Fabric) Rollup(ctx context.Context, local api.NodeStats) *api.FleetRollup {
	roll := &api.FleetRollup{
		Nodes:           1,
		Simulations:     local.Simulations,
		Forwarded:       local.Forwarded,
		ServedForwarded: local.ServedForwarded,
		Fallback:        local.Fallback,
	}
	type polled struct {
		addr  string
		stats *api.NodeStats
	}
	ch := make(chan polled, len(f.peers))
	var wg sync.WaitGroup
	for addr := range f.peers {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, rollupTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(pctx, http.MethodGet, "http://"+addr+"/"+api.Version+"/cluster/stats", nil)
			if err != nil {
				ch <- polled{addr, nil}
				return
			}
			resp, err := f.client.Do(req)
			if err != nil {
				ch <- polled{addr, nil}
				return
			}
			defer resp.Body.Close()
			ns, ok := decodeNodeStats(resp.StatusCode, resp.Body)
			if !ok {
				ch <- polled{addr, nil}
				return
			}
			ch <- polled{addr, &ns}
		}(addr)
	}
	wg.Wait()
	close(ch)
	for p := range ch {
		if p.stats == nil {
			roll.Unreachable = append(roll.Unreachable, p.addr)
			continue
		}
		roll.Nodes++
		roll.Simulations += p.stats.Simulations
		roll.Forwarded += p.stats.Forwarded
		roll.ServedForwarded += p.stats.ServedForwarded
		roll.Fallback += p.stats.Fallback
	}
	sort.Strings(roll.Unreachable)
	return roll
}
