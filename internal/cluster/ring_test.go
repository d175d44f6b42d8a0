package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"secureproc/internal/workload"
)

func TestRingDeterministicAcrossMemberOrder(t *testing.T) {
	// Ring agreement is the whole game: every member must compute the same
	// owner for every key regardless of the order -peers was written in.
	a := newRing([]string{"n1:8080", "n2:8080", "n3:8080"})
	b := newRing([]string{"n3:8080", "n1:8080", "n2:8080"})
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if oa, ob := a.owner(key), b.owner(key); oa != ob {
			t.Fatalf("key %q: owner %q vs %q under reordered membership", key, oa, ob)
		}
	}
}

func TestRingBalance(t *testing.T) {
	// With 64 vnodes per member, no member should own a wildly skewed share
	// of the key space. Allow a generous band (half to double the fair
	// share) — the point is catching a broken hash, not perfect balance.
	members := []string{"n1:8080", "n2:8080", "n3:8080", "n4:8080"}
	r := newRing(members)
	counts := make(map[string]int)
	const keys = 10000
	for i := 0; i < keys; i++ {
		counts[r.owner(fmt.Sprintf("gzip/snc-lru/snc%dKB-0w/l2-256KB-4w/c50", i))]++
	}
	fair := keys / len(members)
	for _, m := range members {
		if c := counts[m]; c < fair/2 || c > fair*2 {
			t.Errorf("member %s owns %d of %d keys (fair share %d)", m, c, keys, fair)
		}
	}
}

// TestRingBalanceLoopbackPorts: two members on one host whose addresses
// differ only in their port digits, the shape of every single-machine
// fleet and of the httptest pairs the server tests boot, must each own a
// fair part of the run keys. Over seeded random port pairs, each member
// owns 25-75% of a grid of canonical-key-shaped strings. Plain FNV-1a
// without a finalizer hands one member every key, or none, for some of
// these pairs.
func TestRingBalanceLoopbackPorts(t *testing.T) {
	var keys []string
	for _, b := range workload.BenchmarkNames {
		for _, scheme := range []string{"baseline", "xom", "snc-lru", "snc-norepl", "otp-mac", "otp-mac:verify=blocking", "otp-precompute"} {
			for lat := 10; lat <= 200; lat += 10 {
				keys = append(keys, fmt.Sprintf("%s/%s/snc64KB-0w/l2-256KB-4w/c%d", b, scheme, lat))
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for pair := 0; pair < 300; pair++ {
		pa := 1024 + rng.Intn(64512)
		pb := 1024 + rng.Intn(64512)
		if pa == pb {
			continue
		}
		a, b := fmt.Sprintf("127.0.0.1:%d", pa), fmt.Sprintf("127.0.0.1:%d", pb)
		r := newRing([]string{a, b})
		own := 0
		for _, k := range keys {
			if r.owner(k) == a {
				own++
			}
		}
		if share := float64(own) / float64(len(keys)); share < 0.25 || share > 0.75 {
			t.Errorf("ring {%s, %s}: %s owns %.3f of %d keys, want 0.25-0.75", a, b, a, share, len(keys))
		}
	}
}

func TestRingResizeMovesFewKeys(t *testing.T) {
	// Consistency property: adding one member must remap roughly 1/N of
	// the key space, not reshuffle everything.
	small := newRing([]string{"n1:8080", "n2:8080", "n3:8080"})
	big := newRing([]string{"n1:8080", "n2:8080", "n3:8080", "n4:8080"})
	const keys = 10000
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		if small.owner(key) != big.owner(key) {
			if big.owner(key) != "n4:8080" {
				t.Fatalf("key %q moved between surviving members (%s -> %s)", key, small.owner(key), big.owner(key))
			}
			moved++
		}
	}
	// Fair share for the new member is 1/4; anything under half the ring
	// moving proves consistency (a plain mod-N hash would move ~3/4).
	if moved > keys/2 {
		t.Errorf("%d of %d keys moved on resize; consistent hashing should move ~1/4", moved, keys)
	}
	if moved == 0 {
		t.Error("no keys moved to the new member")
	}
}

func TestRingDegenerateInputs(t *testing.T) {
	if got := (&ring{}).owner("x"); got != "" {
		t.Errorf("empty ring owner = %q, want \"\"", got)
	}
	r := newRing([]string{"n1:8080", "n1:8080", "", "n2:8080"})
	if ms := r.members(); len(ms) != 2 {
		t.Errorf("members = %v, want duplicates and empties collapsed", ms)
	}
	solo := newRing([]string{"only:1"})
	for _, key := range []string{"a", "b", "c"} {
		if o := solo.owner(key); o != "only:1" {
			t.Errorf("single-member ring owner(%q) = %q", key, o)
		}
	}
}
