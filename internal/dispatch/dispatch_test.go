package dispatch

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestBudgetAccounting(t *testing.T) {
	b := NewBudget(3)
	for i := 0; i < 3; i++ {
		if !b.tryAcquire() {
			t.Fatalf("tryAcquire %d on a 3-slot budget failed", i+1)
		}
	}
	if b.tryAcquire() {
		t.Fatal("tryAcquire on a full budget succeeded")
	}
	for i := 0; i < 3; i++ {
		b.Release()
	}
	if b.Used() != 0 {
		t.Fatalf("after release: used=%d, want 0", b.Used())
	}

	// Hold overcommits rather than blocking; tryAcquire must then grant
	// nothing until the holders drain below the cap.
	for i := 0; i < 5; i++ {
		b.Hold()
	}
	if b.Used() != 5 {
		t.Fatalf("after 5 holds on a 3-slot budget used=%d, want 5", b.Used())
	}
	if b.tryAcquire() {
		t.Fatal("tryAcquire while overcommitted succeeded")
	}
	for i := 0; i < 3; i++ {
		b.Release()
	}
	if !b.tryAcquire() {
		t.Fatal("tryAcquire with used below cap failed")
	}
}

func TestDispatcherRunsEveryJob(t *testing.T) {
	d := NewDispatcher(NewBudget(4))
	const n = 200
	var mu sync.Mutex
	ran := make(map[int]int)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		owner := "a"
		if i%3 == 0 {
			owner = "b"
		}
		d.Submit(context.Background(), owner, 1+i%4, func(context.Context) {
			mu.Lock()
			ran[i]++
			mu.Unlock()
			wg.Done()
		})
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if ran[i] != 1 {
			t.Fatalf("job %d ran %d times, want exactly once", i, ran[i])
		}
	}
	// A job's wg.Done fires before exec's deferred bookkeeping (completed
	// count, slot release) runs, so wait for the last job to finish
	// settling before reading the counters.
	st := d.Stats()
	for deadline := time.Now().Add(5 * time.Second); st.Completed != n && time.Now().Before(deadline); st = d.Stats() {
		time.Sleep(time.Millisecond)
	}
	if st.Submitted != n || st.Completed != n || st.Queued != 0 || st.Running != 0 {
		t.Errorf("stats after drain = %+v, want submitted=completed=%d, queued=running=0", st, n)
	}
	if st.BudgetUsed != 0 {
		t.Errorf("budget used = %d after drain, want 0", st.BudgetUsed)
	}
}

// TestDispatcherWeightedFairness pins the starvation guarantee: with one
// worker slot and a bulk owner's queue already ten deep, a later-arriving
// interactive job must be scheduled second, not eleventh — and that
// out-of-arrival-order pick must be counted as a fairness preemption.
func TestDispatcherWeightedFairness(t *testing.T) {
	d := NewDispatcher(NewBudget(1))

	// Occupy the only slot so every subsequent Submit queues.
	gate := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	d.Submit(context.Background(), "gate", 1, func(context.Context) {
		close(started)
		<-gate
		wg.Done()
	})
	<-started

	var mu sync.Mutex
	var order []string
	record := func(owner string) func(context.Context) {
		return func(context.Context) {
			mu.Lock()
			order = append(order, owner)
			mu.Unlock()
			wg.Done()
		}
	}
	const bulkJobs = 10
	wg.Add(bulkJobs + 1)
	for i := 0; i < bulkJobs; i++ {
		d.Submit(context.Background(), "bulk", 1, record("bulk"))
	}
	d.Submit(context.Background(), "interactive", 4, record("interactive"))

	if st := d.Stats(); st.Queued != bulkJobs+1 || st.Owners != 2 {
		t.Fatalf("queued=%d owners=%d before release, want %d/2", st.Queued, st.Owners, bulkJobs+1)
	}
	close(gate)
	wg.Wait()

	if len(order) != bulkJobs+1 {
		t.Fatalf("ran %d jobs, want %d", len(order), bulkJobs+1)
	}
	// Strides from a fresh virtual time: bulk's head (oldest) runs first,
	// then the interactive job jumps the remaining nine bulk jobs.
	if order[0] != "bulk" || order[1] != "interactive" {
		t.Errorf("schedule order %v: interactive job did not run second", order)
	}
	if st := d.Stats(); st.FairnessPreemptions < 1 {
		t.Errorf("fairness preemptions = %d, want >= 1 (interactive jumped the bulk queue)", st.FairnessPreemptions)
	}
}

func TestAdmissionCapAndRelease(t *testing.T) {
	a := NewAdmission(2)
	rel1, ok := a.TryAdmit()
	if !ok {
		t.Fatal("first admit rejected")
	}
	rel2, ok := a.TryAdmit()
	if !ok {
		t.Fatal("second admit rejected")
	}
	if _, ok := a.TryAdmit(); ok {
		t.Fatal("third admit accepted beyond cap 2")
	}
	for _, depth := range []int{0, 1, 1000} {
		if ra := a.RetryAfterFor(depth); ra < time.Second || ra > time.Minute {
			t.Errorf("RetryAfterFor(%d) = %v, want within [1s, 60s]", depth, ra)
		}
	}
	rel1()
	rel1() // double release must be a no-op, not a freed slot
	if st := a.Stats(); st.InFlight != 1 {
		t.Fatalf("in-flight after one release (double-called) = %d, want 1", st.InFlight)
	}
	if _, ok := a.TryAdmit(); !ok {
		t.Fatal("admit after release rejected")
	}
	rel2()
	st := a.Stats()
	if st.Cap != 2 || st.Admitted != 3 || st.Rejected != 1 {
		t.Errorf("stats = %+v, want cap=2 admitted=3 rejected=1", st)
	}
}

func TestAdmissionUnbounded(t *testing.T) {
	a := NewAdmission(0)
	for i := 0; i < 100; i++ {
		if _, ok := a.TryAdmit(); !ok {
			t.Fatalf("unbounded gate rejected admit %d", i)
		}
	}
	if st := a.Stats(); st.Rejected != 0 || st.InFlight != 100 {
		t.Errorf("stats = %+v, want rejected=0 in_flight=100", st)
	}
}

func TestOwnerContext(t *testing.T) {
	if o, w := OwnerFromContext(context.Background()); o != "" || w != 1 {
		t.Errorf("untagged context = (%q, %d), want (\"\", 1)", o, w)
	}
	ctx := WithOwner(context.Background(), "client-7", 4)
	if o, w := OwnerFromContext(ctx); o != "client-7" || w != 4 {
		t.Errorf("tagged context = (%q, %d), want (client-7, 4)", o, w)
	}
	if _, w := OwnerFromContext(WithOwner(context.Background(), "x", -3)); w != 1 {
		t.Errorf("weight %d, want sub-1 weights clamped to 1", w)
	}
}
