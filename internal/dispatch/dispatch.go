// Package dispatch is the execution layer under every simulation the
// process runs: one shared worker budget, a weighted-fair queue over
// request owners, and admission control for the long-lived service.
//
// Before this package the concurrency machinery was smeared across
// layers — the experiment pool's goroutine fan-out, the server's
// detach/await handlers, and the daemon's drain logic — so no single
// place could admit, order, or shed load. dispatch centralizes the three
// decisions:
//
//   - Budget: how many workers exist and who holds one right now.
//   - Dispatcher: which queued job runs next. Jobs are tagged with an
//     owner; owners share the budget by stride scheduling (an owner's
//     virtual "pass" advances inversely to its weight each time it runs),
//     so a bulk sweep enqueueing hundreds of jobs cannot starve an
//     interactive caller enqueueing one.
//   - Admission: how many requests are allowed to hold queue space at
//     all. Beyond the cap, callers are rejected immediately (the HTTP
//     layer turns that into 429 + Retry-After) instead of queueing
//     unboundedly.
//
// The batch path (figure sweeps, the CLI with one worker) never
// constructs a Dispatcher and pays only two atomic counters — the perf
// harness gates that the golden figure sweep costs the same as before
// the dispatch layer existed.
package dispatch

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Budget is the shared worker-slot ledger. Two kinds of users coexist:
//
//   - Hold marks a worker as busy unconditionally (a caller that will run
//     regardless, like a direct library Run); used may exceed the cap,
//     which simply delays dispatched jobs until holders release.
//   - tryAcquire claims one slot only while used < cap and never blocks —
//     the dispatcher claims one slot per running job this way.
//
// The zero value is usable after SetCap.
type Budget struct {
	capv atomic.Int64
	used atomic.Int64
}

// NewBudget returns a budget with n worker slots.
func NewBudget(n int) *Budget {
	b := &Budget{}
	b.SetCap(n)
	return b
}

// SetCap sets the number of worker slots. Safe to call concurrently;
// shrinking below the currently-used count just blocks new grants until
// holders release.
func (b *Budget) SetCap(n int) { b.capv.Store(int64(n)) }

// Cap returns the slot count.
func (b *Budget) Cap() int { return int(b.capv.Load()) }

// Used returns the number of slots currently held (may exceed Cap when
// unconditional holders overcommit).
func (b *Budget) Used() int { return int(b.used.Load()) }

// Hold marks one worker busy unconditionally. Pair with Release.
func (b *Budget) Hold() { b.used.Add(1) }

// tryAcquire claims one idle slot, reporting whether it got one. It never
// blocks and never overcommits: grants stop at the cap, so no interleaving
// of holders and acquirers can oversubscribe through this path.
func (b *Budget) tryAcquire() bool {
	for {
		cur := b.used.Load()
		if cur >= b.capv.Load() {
			return false
		}
		if b.used.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// Release returns one slot claimed by Hold or tryAcquire.
func (b *Budget) Release() { b.used.Add(-1) }

// ownerKey carries the fairness tag through a context.
type ownerKey struct{}

type ownerTag struct {
	owner  string
	weight int
}

// WithOwner tags ctx with a fairness owner and weight for jobs submitted
// under it. Higher weight means a larger share of the worker budget when
// owners compete (an interactive endpoint typically tags a higher weight
// than a bulk one). Weight < 1 is treated as 1.
func WithOwner(ctx context.Context, owner string, weight int) context.Context {
	if weight < 1 {
		weight = 1
	}
	return context.WithValue(ctx, ownerKey{}, ownerTag{owner, weight})
}

// OwnerFromContext reads the fairness tag; untagged contexts share the
// anonymous owner "" at weight 1.
func OwnerFromContext(ctx context.Context) (owner string, weight int) {
	if t, ok := ctx.Value(ownerKey{}).(ownerTag); ok {
		return t.owner, t.weight
	}
	return "", 1
}

// strideBase is the numerator of the per-job stride: an owner's pass
// advances by strideBase/weight per scheduled job, so a weight-4 owner is
// picked four times as often as a weight-1 owner under contention.
const strideBase = float64(1 << 16)

// job is one queued unit of work.
type job struct {
	ctx    context.Context
	run    func(context.Context)
	weight int
	seq    uint64 // global arrival order, for preemption accounting
	next   *job
}

// ownerQ is one owner's FIFO plus its stride-scheduling pass.
type ownerQ struct {
	name       string
	pass       float64
	head, tail *job
	len        int
}

// QueueStats is a point-in-time snapshot of the dispatcher, exported for
// diagnostics and the secsimd /metrics endpoint.
type QueueStats struct {
	// Queued is the number of jobs waiting for a worker slot.
	Queued int `json:"queued"`
	// Running is the number of jobs currently holding a slot.
	Running int `json:"running"`
	// Owners is the number of owners with queued jobs.
	Owners int `json:"owners"`
	// Submitted and Completed count jobs over the dispatcher's lifetime.
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	// FairnessPreemptions counts scheduling decisions that ran a job ahead
	// of an earlier-arrived job from another owner — the weighted-fair
	// queue visibly overriding FIFO order.
	FairnessPreemptions int64 `json:"fairness_preemptions"`
	// BudgetCap and BudgetUsed snapshot the shared worker budget.
	BudgetCap  int `json:"budget_cap"`
	BudgetUsed int `json:"budget_used"`
}

// Dispatcher runs submitted jobs on the shared budget in weighted-fair
// owner order. It owns no goroutines of its own: scheduling decisions are
// made on Submit and on job completion, and each running job is one
// goroutine holding one budget slot.
type Dispatcher struct {
	budget *Budget

	mu        sync.Mutex
	owners    map[string]*ownerQ
	order     []*ownerQ // stable scan order for deterministic picks
	queued    int
	running   int
	seq       uint64
	virt      float64 // pass floor for owners entering the queue
	submitted int64
	completed int64
	preempted int64
}

// NewDispatcher builds a dispatcher over the shared budget.
func NewDispatcher(b *Budget) *Dispatcher {
	return &Dispatcher{budget: b, owners: make(map[string]*ownerQ)}
}

// Submit enqueues run under the owner's fairness queue and starts it as
// soon as the weighted-fair order and the worker budget allow. run
// receives ctx and is always called exactly once, even after ctx is
// cancelled — cancellation shedding is the job's responsibility (check
// ctx.Err() first), which keeps completion callbacks reliable.
func (d *Dispatcher) Submit(ctx context.Context, owner string, weight int, run func(context.Context)) {
	if weight < 1 {
		weight = 1
	}
	d.mu.Lock()
	oq := d.owners[owner]
	if oq == nil {
		// A newcomer (or an owner whose queue drained) starts at the
		// current virtual-time floor: it gets its fair share from now on
		// but no credit for the time it was idle.
		oq = &ownerQ{name: owner, pass: d.virt}
		d.owners[owner] = oq
		d.order = append(d.order, oq)
	}
	j := &job{ctx: ctx, run: run, weight: weight, seq: d.seq}
	d.seq++
	if oq.tail != nil {
		oq.tail.next = j
	} else {
		oq.head = j
	}
	oq.tail = j
	oq.len++
	d.queued++
	d.submitted++
	d.kick()
	d.mu.Unlock()
}

// kick starts queued jobs while the budget grants slots. Called with
// d.mu held.
func (d *Dispatcher) kick() {
	for d.queued > 0 {
		if !d.budget.tryAcquire() {
			return
		}
		j := d.pick()
		d.running++
		go d.exec(j)
	}
}

// pick pops the head job of the owner with the smallest pass (ties broken
// by earliest-arrived head, then owner name, so the choice is
// deterministic), advances that owner's pass by its stride, and counts a
// fairness preemption when the pick jumps an earlier-arrived job from
// another owner. Called with d.mu held and d.queued > 0.
func (d *Dispatcher) pick() *job {
	var best *ownerQ
	var oldest uint64
	first := true
	for _, oq := range d.order {
		if oq.head == nil {
			continue
		}
		if first || oq.head.seq < oldest {
			oldest = oq.head.seq
			first = false
		}
		if best == nil || oq.pass < best.pass ||
			(oq.pass == best.pass && oq.head.seq < best.head.seq) {
			best = oq
		}
	}
	j := best.head
	best.head = j.next
	if best.head == nil {
		best.tail = nil
	}
	j.next = nil
	best.len--
	d.queued--
	if j.seq != oldest {
		d.preempted++
	}
	best.pass += strideBase / float64(j.weight)
	if best.pass > d.virt {
		d.virt = best.pass
	}
	if best.head == nil {
		d.dropOwner(best)
	}
	return j
}

// dropOwner removes a drained owner queue so the owner map cannot grow
// without bound under per-client tags; a returning owner re-enters at the
// current virtual-time floor. Called with d.mu held.
func (d *Dispatcher) dropOwner(oq *ownerQ) {
	delete(d.owners, oq.name)
	for i, o := range d.order {
		if o == oq {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
}

// exec runs one job on its own goroutine, then returns the slot and
// schedules successors. The slot is released even if the job panics (jobs
// are expected to contain their own panics; the release keeps a
// propagating one from also strangling the budget).
func (d *Dispatcher) exec(j *job) {
	defer func() {
		d.mu.Lock()
		d.running--
		d.completed++
		d.budget.Release()
		d.kick()
		d.mu.Unlock()
	}()
	j.run(j.ctx)
}

// OwnerQueued reports how many jobs the named owner has waiting for a
// worker slot right now — the depth behind that owner's honest Retry-After
// estimate (a fair-queued client waits behind its own queue, not behind
// the global backlog).
func (d *Dispatcher) OwnerQueued(owner string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if oq := d.owners[owner]; oq != nil {
		return oq.len
	}
	return 0
}

// Stats snapshots the dispatcher counters.
func (d *Dispatcher) Stats() QueueStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return QueueStats{
		Queued:              d.queued,
		Running:             d.running,
		Owners:              len(d.owners),
		Submitted:           d.submitted,
		Completed:           d.completed,
		FairnessPreemptions: d.preempted,
		BudgetCap:           d.budget.Cap(),
		BudgetUsed:          d.budget.Used(),
	}
}

// AdmissionStats is a point-in-time snapshot of an Admission gate.
type AdmissionStats struct {
	// Cap is the configured bound (0 = unbounded).
	Cap int `json:"cap"`
	// InFlight is the number of currently admitted requests.
	InFlight int `json:"in_flight"`
	// Admitted and Rejected count decisions over the gate's lifetime.
	Admitted int64 `json:"admitted_total"`
	Rejected int64 `json:"rejected_total"`
}

// Admission bounds the number of concurrently admitted requests —
// distinct from worker slots, which bound concurrently *executing*
// simulations. With W workers and A admitted requests, at most A requests
// hold queue space in the dispatcher; request A+1 is rejected immediately
// so queues cannot grow unboundedly under a traffic burst.
type Admission struct {
	cap      int64
	inflight atomic.Int64
	admitted atomic.Int64
	rejected atomic.Int64
	// avgNs is a racily-updated EWMA of admitted-request durations,
	// feeding the Retry-After estimate. Exactness is irrelevant; the
	// header just needs to be in the right ballpark.
	avgNs atomic.Int64
}

// NewAdmission builds a gate admitting at most cap concurrent requests
// (cap <= 0 = unbounded).
func NewAdmission(cap int) *Admission {
	if cap < 0 {
		cap = 0
	}
	return &Admission{cap: int64(cap)}
}

// TryAdmit admits one request. On success it returns a release function
// (call exactly once, when the request finishes) and true; when the gate
// is full it returns (nil, false) and counts the rejection.
func (a *Admission) TryAdmit() (release func(), ok bool) {
	for {
		cur := a.inflight.Load()
		if a.cap > 0 && cur >= a.cap {
			a.rejected.Add(1)
			return nil, false
		}
		if a.inflight.CompareAndSwap(cur, cur+1) {
			break
		}
	}
	a.admitted.Add(1)
	start := time.Now()
	var once sync.Once
	return func() {
		once.Do(func() {
			a.inflight.Add(-1)
			took := time.Since(start).Nanoseconds()
			old := a.avgNs.Load()
			if old == 0 {
				a.avgNs.Store(took)
			} else {
				a.avgNs.Store(old + (took-old)/8)
			}
		})
	}, true
}

// RetryAfterFor estimates how long a rejected caller should wait before
// retrying: the observed average request duration scaled by the rejected
// owner's own queue depth (how many of *its* jobs wait for a worker),
// clamped to [1s, 60s]. With no history yet, one second per queued job.
// Under weighted-fair scheduling an owner drains its own queue at its fair
// rate regardless of the global backlog, so depth-of-own-queue is the
// honest multiplier.
func (a *Admission) RetryAfterFor(ownerDepth int) time.Duration {
	avg := time.Duration(a.avgNs.Load())
	if avg <= 0 {
		avg = time.Second
	}
	n := int64(ownerDepth)
	if n < 1 {
		n = 1
	}
	est := avg * time.Duration(n)
	if est < time.Second {
		est = time.Second
	}
	if est > time.Minute {
		est = time.Minute
	}
	return est
}

// Stats snapshots the admission counters.
func (a *Admission) Stats() AdmissionStats {
	return AdmissionStats{
		Cap:      int(a.cap),
		InFlight: int(a.inflight.Load()),
		Admitted: a.admitted.Load(),
		Rejected: a.rejected.Load(),
	}
}
