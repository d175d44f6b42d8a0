package experiments

// lru is the map-plus-recency-list behind the result and trace memos and
// the retention cache. Entries are added pinned: they sit in the map, but
// not on the recency list, so eviction cannot touch them (the memos pin
// in-flight computations this way). link makes an entry evictable, and the
// capacity bounds the summed cost of linked entries only: a memo charges
// each entry 1, so its capacity counts entries, and the retention cache
// charges the bytes an entry holds. lru is not safe for concurrent use;
// every owner guards it with its own mutex.
type lru[K comparable, V any] struct {
	cap   int // bound on the linked entries' summed cost; <= 0 means unbounded
	items map[K]*lruNode[K, V]
	// head/tail are the linked entries, most recently used first.
	head, tail *lruNode[K, V]
	used       int // summed cost of the linked entries
	evictions  int64
}

// lruNode is one entry. Holders may keep a pointer to val across the lock
// they took the node under; the node is never reused after removal.
type lruNode[K comparable, V any] struct {
	key        K
	val        V
	cost       int
	linked     bool
	prev, next *lruNode[K, V]
}

func newLRU[K comparable, V any](capacity int) lru[K, V] {
	return lru[K, V]{cap: capacity, items: make(map[K]*lruNode[K, V])}
}

// get returns k's entry, marking it most recently used if it is linked.
func (l *lru[K, V]) get(k K) (*lruNode[K, V], bool) {
	n, ok := l.items[k]
	if ok && n.linked && l.head != n {
		l.unlink(n)
		l.pushFront(n)
	}
	return n, ok
}

// add inserts a pinned entry for k costing cost, which must not be
// present.
func (l *lru[K, V]) add(k K, v V, cost int) *lruNode[K, V] {
	n := &lruNode[K, V]{key: k, val: v, cost: cost}
	l.items[k] = n
	return n
}

// link makes a pinned entry evictable as the most recently used one.
func (l *lru[K, V]) link(n *lruNode[K, V]) { l.pushFront(n) }

// set replaces a linked entry's value and cost.
func (l *lru[K, V]) set(n *lruNode[K, V], v V, cost int) {
	l.used += cost - n.cost
	n.val, n.cost = v, cost
}

// evict drops and returns the least-recently-used linked entry while the
// linked entries cost more than cap, and returns nil once they fit. An
// owner calls it until nil after each link or set; the entry just linked
// or set is the most recent, so it goes last, and only if it alone costs
// more than cap.
func (l *lru[K, V]) evict() *lruNode[K, V] {
	if l.cap <= 0 || l.used <= l.cap {
		return nil
	}
	victim := l.tail
	l.remove(victim)
	l.evictions++
	return victim
}

// remove drops an entry, linked or pinned.
func (l *lru[K, V]) remove(n *lruNode[K, V]) {
	if n.linked {
		l.unlink(n)
	}
	delete(l.items, n.key)
}

// len reports the number of entries, pinned ones included.
func (l *lru[K, V]) len() int { return len(l.items) }

func (l *lru[K, V]) pushFront(n *lruNode[K, V]) {
	n.prev, n.next, n.linked = nil, l.head, true
	if l.head != nil {
		l.head.prev = n
	} else {
		l.tail = n
	}
	l.head = n
	l.used += n.cost
}

func (l *lru[K, V]) unlink(n *lruNode[K, V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next, n.linked = nil, nil, false
	l.used -= n.cost
}
