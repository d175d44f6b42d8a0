package cluster

import (
	"sort"
	"strconv"
)

// vnodesPerPeer is the number of virtual points each member contributes to
// the hash ring. More points smooth the key distribution across members;
// 64 keeps the per-member imbalance in the low single-digit percents while
// the ring stays a few hundred entries for realistic fleets.
const vnodesPerPeer = 64

// ringPoint is one virtual node: a position on the 64-bit hash circle and
// the member that owns the arc ending there.
type ringPoint struct {
	hash uint64
	addr string
}

// ring is a consistent-hash ring over member addresses. A key is owned by
// the first point clockwise of the key's hash; adding or removing one
// member moves only the arcs adjacent to its points, so a fleet resize
// remaps ~1/N of the key space instead of reshuffling everything.
type ring struct {
	points []ringPoint
}

// ringHash places a vnode or a key on the circle: 64-bit FNV-1a followed
// by the splitmix64 finalizer. Both are deterministic across processes
// (ring agreement requires every member to hash identically) and cheap
// enough to run per request. FNV-1a alone barely carries its last input
// bytes into the high bits, which order the ring, so one member's
// "addr#i" points bunch together and two members that differ only in port
// digits can split the keys all-or-nothing; the finalizer's xor-shift
// multiply rounds spread every input bit over the whole word.
func ringHash(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// newRing builds a ring over the given member addresses. Duplicate
// addresses collapse to one member.
func newRing(addrs []string) *ring {
	seen := make(map[string]bool, len(addrs))
	r := &ring{}
	for _, a := range addrs {
		if a == "" || seen[a] {
			continue
		}
		seen[a] = true
		for i := 0; i < vnodesPerPeer; i++ {
			// The vnode index is mixed into the hashed string so every
			// member's points spread independently around the circle.
			r.points = append(r.points, ringPoint{hash: ringHash(a + "#" + strconv.Itoa(i)), addr: a})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Equal hashes (vanishingly rare) tie-break on address so every
		// member sorts the ring identically.
		return r.points[i].addr < r.points[j].addr
	})
	return r
}

// owner returns the member owning key, or "" on an empty ring.
func (r *ring) owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the first point owns the arc past the highest hash
	}
	return r.points[i].addr
}

// members returns the distinct member addresses, sorted.
func (r *ring) members() []string {
	seen := make(map[string]bool)
	var out []string
	for _, p := range r.points {
		if !seen[p.addr] {
			seen[p.addr] = true
			out = append(out, p.addr)
		}
	}
	sort.Strings(out)
	return out
}
