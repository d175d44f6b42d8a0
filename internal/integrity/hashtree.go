package integrity

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// HashTree is a Merkle tree over protected memory lines — the integrity
// mechanism of Gassend, Suh, Clarke, van Dijk & Devadas (HPCA 2003), which
// the paper cites (Section 6) as the companion solution for replay attacks:
// only the root must stay on chip, so unlike the flat MAC table the trusted
// state is O(1) regardless of memory size.
//
// The tree covers a fixed number of line-granular leaves. Interior nodes
// hash their children; the root is compared against the on-chip copy on
// every verification. Updating a leaf rehashes the path to the root
// (log2(n) hashes), which is exactly the cost profile Gassend et al.
// optimize with cached tree nodes; CachedVerifier below models that cache.
type HashTree struct {
	lineBytes int
	leaves    int      // power of two
	nodes     [][]byte // heap layout: nodes[1] = root, nodes[2i], nodes[2i+1] children
	key       []byte
}

// NewHashTree builds a tree over `leaves` lines (rounded up to a power of
// two) of lineBytes each, all initially zero.
func NewHashTree(key []byte, lineBytes, leaves int) (*HashTree, error) {
	if lineBytes <= 0 || leaves <= 0 {
		return nil, fmt.Errorf("integrity: line size and leaf count must be positive")
	}
	n := 1
	for n < leaves {
		n *= 2
	}
	t := &HashTree{
		lineBytes: lineBytes,
		leaves:    n,
		nodes:     make([][]byte, 2*n),
		key:       append([]byte(nil), key...),
	}
	// Initialize leaf hashes over zero lines, then interior nodes.
	zero := make([]byte, lineBytes)
	for i := 0; i < n; i++ {
		t.nodes[n+i] = t.leafHash(i, zero)
	}
	for i := n - 1; i >= 1; i-- {
		t.nodes[i] = t.interiorHash(t.nodes[2*i], t.nodes[2*i+1])
	}
	return t, nil
}

// Leaves returns the (rounded) leaf capacity.
func (t *HashTree) Leaves() int { return t.leaves }

// Depth returns the number of hash levels from leaf to root.
func (t *HashTree) Depth() int {
	d := 0
	for n := t.leaves; n > 1; n /= 2 {
		d++
	}
	return d
}

// Root returns a copy of the current root hash (the on-chip register).
func (t *HashTree) Root() []byte { return append([]byte(nil), t.nodes[1]...) }

func (t *HashTree) leafHash(index int, line []byte) []byte {
	var idx [8]byte
	binary.LittleEndian.PutUint64(idx[:], uint64(index))
	return t.mac(append(append([]byte{0x00}, idx[:]...), line...))
}

func (t *HashTree) interiorHash(l, r []byte) []byte {
	return t.mac(append(append([]byte{0x01}, l...), r...))
}

func (t *HashTree) mac(msg []byte) []byte {
	h := hmac.New(sha256.New, t.key)
	h.Write(msg)
	return h.Sum(nil)
}

func (t *HashTree) checkIndex(index int) error {
	if index < 0 || index >= t.leaves {
		return fmt.Errorf("integrity: leaf %d out of range [0,%d)", index, t.leaves)
	}
	return nil
}

// Update rehashes the path from leaf `index` (holding `line`) to the root —
// what the chip does on a writeback.
func (t *HashTree) Update(index int, line []byte) error {
	if err := t.checkIndex(index); err != nil {
		return err
	}
	if len(line) != t.lineBytes {
		return fmt.Errorf("integrity: line length %d != %d", len(line), t.lineBytes)
	}
	i := t.leaves + index
	t.nodes[i] = t.leafHash(index, line)
	for i /= 2; i >= 1; i /= 2 {
		t.nodes[i] = t.interiorHash(t.nodes[2*i], t.nodes[2*i+1])
	}
	return nil
}

// Proof returns the sibling path for a leaf (what an untrusted memory
// controller would supply alongside the fetched line).
func (t *HashTree) Proof(index int) ([][]byte, error) {
	if err := t.checkIndex(index); err != nil {
		return nil, err
	}
	var path [][]byte
	for i := t.leaves + index; i > 1; i /= 2 {
		path = append(path, append([]byte(nil), t.nodes[i^1]...))
	}
	return path, nil
}

// Verify recomputes the root from a fetched line plus its sibling path and
// compares it with the trusted root. It returns ErrTampered on mismatch.
func (t *HashTree) Verify(index int, line []byte, proof [][]byte) error {
	if err := t.checkIndex(index); err != nil {
		return err
	}
	if len(proof) != t.Depth() {
		return fmt.Errorf("integrity: proof depth %d != %d", len(proof), t.Depth())
	}
	h := t.leafHash(index, line)
	i := t.leaves + index
	for _, sib := range proof {
		if i%2 == 0 {
			h = t.interiorHash(h, sib)
		} else {
			h = t.interiorHash(sib, h)
		}
		i /= 2
	}
	if !hmac.Equal(h, t.nodes[1]) {
		return fmt.Errorf("%w (leaf %d, hash-tree root mismatch)", ErrTampered, index)
	}
	return nil
}

// CachedVerifier wraps a HashTree with the Gassend et al. optimization:
// tree nodes verified recently are cached on chip and act as local roots,
// so verification stops at the first cached ancestor instead of walking to
// the real root. HashesSaved counts the work avoided.
type CachedVerifier struct {
	tree  *HashTree
	cache map[int]bool // node index -> trusted
	cap   int
	// Stats.
	HashesComputed uint64
	HashesSaved    uint64
}

// NewCachedVerifier wraps tree with an on-chip node cache of the given
// capacity (the root is always trusted and does not count).
func NewCachedVerifier(tree *HashTree, capacity int) *CachedVerifier {
	return &CachedVerifier{tree: tree, cache: make(map[int]bool), cap: capacity}
}

// Verify checks a leaf like HashTree.Verify but stops at cached ancestors,
// then marks the verified path as trusted (evicting arbitrarily when over
// capacity, standing in for LRU).
func (c *CachedVerifier) Verify(index int, line []byte, proof [][]byte) error {
	if err := c.tree.checkIndex(index); err != nil {
		return err
	}
	h := c.tree.leafHash(index, line)
	c.HashesComputed++
	i := c.tree.leaves + index
	level := 0
	for i > 1 {
		if c.cache[i] {
			// Cached ancestor: compare against its stored value directly.
			c.HashesSaved += uint64(len(proof) - level)
			if !hmac.Equal(h, c.tree.nodes[i]) {
				return fmt.Errorf("%w (leaf %d, cached node %d)", ErrTampered, index, i)
			}
			c.markPath(index, level)
			return nil
		}
		if level >= len(proof) {
			return fmt.Errorf("integrity: proof too short")
		}
		sib := proof[level]
		if i%2 == 0 {
			h = c.tree.interiorHash(h, sib)
		} else {
			h = c.tree.interiorHash(sib, h)
		}
		c.HashesComputed++
		i /= 2
		level++
	}
	if !hmac.Equal(h, c.tree.nodes[1]) {
		return fmt.Errorf("%w (leaf %d, root mismatch)", ErrTampered, index)
	}
	c.markPath(index, len(proof))
	return nil
}

// markPath caches the verified ancestors of a leaf up to `levels` deep.
func (c *CachedVerifier) markPath(index, levels int) {
	i := c.tree.leaves + index
	for l := 0; l < levels && i > 1; l++ {
		if len(c.cache) >= c.cap {
			for k := range c.cache { // arbitrary eviction
				delete(c.cache, k)
				break
			}
		}
		c.cache[i] = true
		i /= 2
	}
}

// Invalidate drops cached trust for a leaf's path (needed after Update).
func (c *CachedVerifier) Invalidate(index int) {
	for i := c.tree.leaves + index; i > 1; i /= 2 {
		delete(c.cache, i)
	}
}
