package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestMemo(capacity int) *memo[string, int] {
	return newMemo[string, int](capacity, func(k string) string { return "compute " + k })
}

func TestMemoHitMissCounters(t *testing.T) {
	m := newTestMemo(0)
	calls := 0
	get := func(k string) int {
		v, err := m.do(context.Background(), k, func() (int, error) { calls++; return calls, nil })
		if err != nil {
			t.Fatalf("do(%q): %v", k, err)
		}
		return v
	}
	if v := get("a"); v != 1 {
		t.Fatalf("first a = %d, want 1", v)
	}
	if v := get("a"); v != 1 {
		t.Fatalf("memoized a = %d, want 1", v)
	}
	if v := get("b"); v != 2 {
		t.Fatalf("first b = %d, want 2", v)
	}
	s := m.stats()
	if s.Misses != 2 || s.Hits != 1 || s.Coalesced != 0 || s.Evictions != 0 || s.Size != 2 || s.InFlight != 0 {
		t.Errorf("stats = %+v, want misses=2 hits=1 size=2", s)
	}
}

// TestMemoErrorsAreDropped pins the negative-cache fix: a failed computation
// is reported to its callers but not cached, so the next request retries —
// and a retry that succeeds is served as a normal hit thereafter.
func TestMemoErrorsAreDropped(t *testing.T) {
	m := newTestMemo(0)
	calls := 0
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		_, err := m.do(context.Background(), "a", func() (int, error) { calls++; return 0, boom })
		if !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v, want boom", i, err)
		}
	}
	if calls != 2 {
		t.Fatalf("failing computation ran %d times, want 2 (errors must not memoize)", calls)
	}
	if s := m.stats(); s.Errors != 2 || s.Size != 0 {
		t.Errorf("stats = %+v, want errors=2 size=0", s)
	}
	// A later attempt that succeeds lands in the memo like any first run.
	v, err := m.do(context.Background(), "a", func() (int, error) { calls++; return 99, nil })
	if err != nil || v != 99 {
		t.Fatalf("recovered computation = (%d, %v), want (99, nil)", v, err)
	}
	v, err = m.do(context.Background(), "a", func() (int, error) { calls++; return -1, nil })
	if err != nil || v != 99 || calls != 3 {
		t.Errorf("after recovery: (%d, %v), calls=%d; want value 99 served as a hit with calls=3", v, err, calls)
	}
}

// TestMemoCoalesce pins the singleflight property: a second caller arriving
// while the first holds the computation joins it instead of recomputing.
func TestMemoCoalesce(t *testing.T) {
	m := newTestMemo(0)
	started := make(chan struct{})
	release := make(chan struct{})
	calls := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := m.do(context.Background(), "k", func() (int, error) {
			calls++
			close(started)
			<-release
			return 42, nil
		})
		if v != 42 || err != nil {
			t.Errorf("owner got (%d, %v), want (42, nil)", v, err)
		}
	}()
	<-started
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := m.do(context.Background(), "k", func() (int, error) { calls++; return -1, nil })
		if v != 42 || err != nil {
			t.Errorf("waiter got (%d, %v), want (42, nil)", v, err)
		}
	}()
	// The waiter must register as coalesced before we release the owner.
	for deadline := time.Now().Add(5 * time.Second); m.stats().Coalesced == 0; {
		if time.Now().After(deadline) {
			t.Fatal("waiter never coalesced onto the in-flight entry")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Errorf("computation ran %d times, want 1", calls)
	}
	if s := m.stats(); s.Coalesced != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want misses=1 coalesced=1", s)
	}
}

// TestMemoWaiterCancellation is the memo-level half of the service
// contract: a waiter whose context dies returns ctx.Err() promptly while
// the owner's computation keeps running and lands in the memo.
func TestMemoWaiterCancellation(t *testing.T) {
	m := newTestMemo(0)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			return 7, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.do(ctx, "k", func() (int, error) { return -1, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got err %v, want context.Canceled", err)
	}
	close(release)
	<-done
	v, err := m.do(context.Background(), "k", func() (int, error) { return -1, nil })
	if v != 7 || err != nil {
		t.Errorf("after cancellation, memo holds (%d, %v), want (7, nil) — owner's run must survive", v, err)
	}
}

// TestMemoPanicReleasesWaitersWithError pins the stranded-waiter bugfix: a
// panicking computation records the panic as the entry's error before
// re-raising it, so waiters observe a failure instead of a zero value with
// a nil error.
func TestMemoPanicReleasesWaitersWithError(t *testing.T) {
	m := newTestMemo(0)
	started := make(chan struct{})
	release := make(chan struct{})
	waiterErr := make(chan error, 1)
	ownerPanic := make(chan any, 1)
	go func() {
		defer func() { ownerPanic <- recover() }()
		m.do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			panic("kaboom")
		})
	}()
	<-started
	go func() {
		_, err := m.do(context.Background(), "k", func() (int, error) { return -1, nil })
		waiterErr <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); m.stats().Coalesced == 0; {
		if time.Now().After(deadline) {
			t.Fatal("waiter never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if p := <-ownerPanic; p == nil {
		t.Error("panic was swallowed in the owning goroutine; it must re-raise")
	} else if fmt.Sprint(p) != "kaboom" {
		t.Errorf("owner re-panicked with %v, want kaboom", p)
	}
	err := <-waiterErr
	if err == nil {
		t.Fatal("waiter released with nil error after a panic — the stranded-waiter bug")
	}
	if !strings.Contains(err.Error(), "compute k panicked: kaboom") {
		t.Errorf("waiter error %q does not describe the panic", err)
	}
	// The failed entry is dropped, not cached: the next request recomputes
	// and can succeed.
	if v, err := m.do(context.Background(), "k", func() (int, error) { return -1, nil }); err != nil || v != -1 {
		t.Errorf("retry after panic = (%d, %v), want (-1, nil) — panics must not become a permanent negative cache", v, err)
	}
}

// TestMemoCompletedEntryBeatsCancelledContext pins the coalesced-waiter
// select-race fix deterministically: with a completed entry and an
// already-cancelled context both ready, wait must prefer the result. Before
// the fix the two-way select picked randomly, so ~half of these iterations
// returned ctx.Err() for a computation that had in fact finished.
func TestMemoCompletedEntryBeatsCancelledContext(t *testing.T) {
	m := newTestMemo(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 200; i++ {
		e := &memoEntry[int]{done: make(chan struct{}), val: 42}
		close(e.done)
		v, err := m.wait(ctx, e)
		if err != nil || v != 42 {
			t.Fatalf("iteration %d: wait = (%d, %v), want (42, nil) — completed entry must beat cancelled ctx", i, v, err)
		}
	}
	// An entry that really is still in flight must still honour cancellation.
	e := &memoEntry[int]{done: make(chan struct{})}
	if _, err := m.wait(ctx, e); !errors.Is(err, context.Canceled) {
		t.Fatalf("in-flight wait under cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestMemoErroredEntryRetriesUnderRace hammers the error-drop path from many
// goroutines (run with -race): concurrent callers of a flaky key either
// observe the error or a successful value, and once a success lands it is
// stable.
func TestMemoErroredEntryRetriesUnderRace(t *testing.T) {
	m := newTestMemo(0)
	boom := errors.New("boom")
	var mu sync.Mutex
	failsLeft := 25
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				v, err := m.do(context.Background(), "k", func() (int, error) {
					mu.Lock()
					defer mu.Unlock()
					if failsLeft > 0 {
						failsLeft--
						return 0, boom
					}
					return 7, nil
				})
				if err == nil && v != 7 {
					t.Errorf("success with wrong value %d", v)
				}
				if err != nil && !errors.Is(err, boom) {
					t.Errorf("unexpected error %v", err)
				}
			}
		}()
	}
	wg.Wait()
	v, err := m.do(context.Background(), "k", func() (int, error) { return -1, nil })
	if err != nil || v != 7 {
		t.Errorf("final state = (%d, %v), want the recovered value (7, nil)", v, err)
	}
}

func TestMemoLRUEviction(t *testing.T) {
	m := newTestMemo(2)
	get := func(k string, v int) {
		t.Helper()
		got, err := m.do(context.Background(), k, func() (int, error) { return v, nil })
		if err != nil || got != v {
			t.Fatalf("do(%q) = (%d, %v), want %d", k, got, err, v)
		}
	}
	get("a", 1)
	get("b", 2)
	get("a", 1)  // touch a: LRU order is now b, a
	get("c", 3)  // evicts b
	get("b", -2) // recompute proves b was evicted
	if s := m.stats(); s.Evictions != 2 || s.Size != 2 {
		t.Errorf("stats = %+v, want evictions=2 size=2 (b evicted by c, then a evicted by b)", s)
	}
	// a was least-recently-used at the second eviction; c must still hit.
	hitsBefore := m.stats().Hits
	get("c", 3)
	if m.stats().Hits != hitsBefore+1 {
		t.Error("c was evicted; LRU order not honoured")
	}
}

// TestMemoInflightPinned checks the capacity bound never evicts an entry
// whose computation is still running: eviction only walks completed
// entries, so in-flight ones can exceed the capacity transiently.
func TestMemoInflightPinned(t *testing.T) {
	m := newTestMemo(1)
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i, k := range []string{"a", "b"} {
		wg.Add(1)
		go func(k string, v int) {
			defer wg.Done()
			got, err := m.do(context.Background(), k, func() (int, error) {
				started <- struct{}{}
				<-release
				return v, nil
			})
			if err != nil || got != v {
				t.Errorf("do(%q) = (%d, %v), want %d", k, got, err, v)
			}
		}(k, i+10)
	}
	<-started
	<-started
	if s := m.stats(); s.InFlight != 2 || s.Size != 2 || s.Evictions != 0 {
		t.Errorf("two in-flight entries over capacity 1: stats = %+v, want no evictions", s)
	}
	close(release)
	wg.Wait()
	if s := m.stats(); s.Size != 1 || s.Evictions != 1 {
		t.Errorf("after completion the bound applies: stats = %+v, want size=1 evictions=1", s)
	}
}
