// Package btree implements a generic in-memory B-tree ordered map.
//
// No product package uses it: the extent free-space index and the database
// engine each keep their own structures. Its one consumer is the benchmark's
// btree.ns_per_op ladder rung, and the package goes when that rung does. The
// implementation is a classic B-tree with configurable degree: every node
// except the root holds between degree-1 and 2*degree-1 keys, and
// splits/merges keep the tree balanced. Keys are ordered by a user-supplied
// comparison function so composite keys need no boxing.
package btree

// Less reports whether a orders before b. It must define a strict weak
// ordering: irreflexive, transitive, and antisymmetric.
type Less[K any] func(a, b K) bool

const defaultDegree = 32

// Map is a B-tree ordered map from K to V. Create one with New; the zero
// value is not usable.
type Map[K, V any] struct {
	less   Less[K]
	root   *node[K, V]
	length int
	degree int
}

type item[K, V any] struct {
	key K
	val V
}

type node[K, V any] struct {
	items    []item[K, V]
	children []*node[K, V] // nil for leaves
}

// New returns an empty map ordered by less, using the default node degree.
func New[K, V any](less Less[K]) *Map[K, V] {
	return NewDegree[K, V](defaultDegree, less)
}

// NewDegree returns an empty map with the given minimum degree (>= 2).
func NewDegree[K, V any](degree int, less Less[K]) *Map[K, V] {
	if degree < 2 {
		panic("btree: degree must be >= 2")
	}
	return &Map[K, V]{less: less, degree: degree}
}

// Len returns the number of entries.
func (m *Map[K, V]) Len() int { return m.length }

func (n *node[K, V]) leaf() bool { return n.children == nil }

// find locates key within n.items. It returns the index of the first item
// not less than key and whether that item equals key.
func (m *Map[K, V]) find(n *node[K, V], key K) (int, bool) {
	lo, hi := 0, len(n.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if m.less(n.items[mid].key, key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.items) && !m.less(key, n.items[lo].key) {
		return lo, true
	}
	return lo, false
}

// Get returns the value stored under key.
func (m *Map[K, V]) Get(key K) (V, bool) {
	n := m.root
	for n != nil {
		i, ok := m.find(n, key)
		if ok {
			return n.items[i].val, true
		}
		if n.leaf() {
			break
		}
		n = n.children[i]
	}
	var zero V
	return zero, false
}

// Has reports whether key is present.
func (m *Map[K, V]) Has(key K) bool {
	_, ok := m.Get(key)
	return ok
}

// Put stores val under key, replacing any existing value.
// It reports whether the key was newly inserted.
func (m *Map[K, V]) Put(key K, val V) bool {
	if m.root == nil {
		m.root = &node[K, V]{items: []item[K, V]{{key, val}}}
		m.length = 1
		return true
	}
	if len(m.root.items) == 2*m.degree-1 {
		old := m.root
		m.root = &node[K, V]{children: []*node[K, V]{old}}
		m.splitChild(m.root, 0)
	}
	inserted := m.insertNonFull(m.root, key, val)
	if inserted {
		m.length++
	}
	return inserted
}

// splitChild splits the full child at index i of parent p.
func (m *Map[K, V]) splitChild(p *node[K, V], i int) {
	t := m.degree
	child := p.children[i]
	right := &node[K, V]{}
	right.items = append(right.items, child.items[t:]...)
	mid := child.items[t-1]
	child.items = child.items[:t-1]
	if !child.leaf() {
		right.children = append(right.children, child.children[t:]...)
		child.children = child.children[:t]
	}
	p.items = append(p.items, item[K, V]{})
	copy(p.items[i+1:], p.items[i:])
	p.items[i] = mid
	p.children = append(p.children, nil)
	copy(p.children[i+2:], p.children[i+1:])
	p.children[i+1] = right
}

func (m *Map[K, V]) insertNonFull(n *node[K, V], key K, val V) bool {
	for {
		i, ok := m.find(n, key)
		if ok {
			n.items[i].val = val
			return false
		}
		if n.leaf() {
			n.items = append(n.items, item[K, V]{})
			copy(n.items[i+1:], n.items[i:])
			n.items[i] = item[K, V]{key, val}
			return true
		}
		if len(n.children[i].items) == 2*m.degree-1 {
			m.splitChild(n, i)
			if m.less(n.items[i].key, key) {
				i++
			} else if !m.less(key, n.items[i].key) {
				n.items[i].val = val
				return false
			}
		}
		n = n.children[i]
	}
}

// Delete removes key and reports whether it was present.
func (m *Map[K, V]) Delete(key K) bool {
	if m.root == nil {
		return false
	}
	deleted := m.delete(m.root, key)
	if len(m.root.items) == 0 {
		if m.root.leaf() {
			m.root = nil
		} else {
			m.root = m.root.children[0]
		}
	}
	if deleted {
		m.length--
	}
	return deleted
}

func (m *Map[K, V]) delete(n *node[K, V], key K) bool {
	i, found := m.find(n, key)
	if n.leaf() {
		if !found {
			return false
		}
		n.items = append(n.items[:i], n.items[i+1:]...)
		return true
	}
	if found {
		// Replace with predecessor (max of left subtree), then delete it
		// from that subtree.
		child := n.children[i]
		if len(child.items) >= m.degree {
			pred := m.maxItem(child)
			n.items[i] = pred
			return m.delete(child, pred.key)
		}
		right := n.children[i+1]
		if len(right.items) >= m.degree {
			succ := m.minItem(right)
			n.items[i] = succ
			return m.delete(right, succ.key)
		}
		m.mergeChildren(n, i)
		return m.delete(child, key)
	}
	// Key not in this node: descend into child i, topping it up first.
	child := n.children[i]
	if len(child.items) < m.degree {
		i = m.fill(n, i)
		child = n.children[i]
		// After fill, the key may now live in this node (rotation moved it).
		if j, ok := m.find(n, key); ok {
			_ = j
			return m.delete(n, key)
		}
	}
	return m.delete(child, key)
}

// fill ensures child i of n has at least degree items, borrowing from a
// sibling or merging. It returns the index of the child to descend into.
func (m *Map[K, V]) fill(n *node[K, V], i int) int {
	if i > 0 && len(n.children[i-1].items) >= m.degree {
		// Rotate right: move parent separator down, left sibling's max up.
		child, left := n.children[i], n.children[i-1]
		child.items = append(child.items, item[K, V]{})
		copy(child.items[1:], child.items)
		child.items[0] = n.items[i-1]
		n.items[i-1] = left.items[len(left.items)-1]
		left.items = left.items[:len(left.items)-1]
		if !left.leaf() {
			child.children = append(child.children, nil)
			copy(child.children[1:], child.children)
			child.children[0] = left.children[len(left.children)-1]
			left.children = left.children[:len(left.children)-1]
		}
		return i
	}
	if i < len(n.children)-1 && len(n.children[i+1].items) >= m.degree {
		// Rotate left.
		child, right := n.children[i], n.children[i+1]
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = append(right.items[:0], right.items[1:]...)
		if !right.leaf() {
			child.children = append(child.children, right.children[0])
			right.children = append(right.children[:0], right.children[1:]...)
		}
		return i
	}
	if i < len(n.children)-1 {
		m.mergeChildren(n, i)
		return i
	}
	m.mergeChildren(n, i-1)
	return i - 1
}

// mergeChildren merges child i, separator i, and child i+1 of n.
func (m *Map[K, V]) mergeChildren(n *node[K, V], i int) {
	left, right := n.children[i], n.children[i+1]
	left.items = append(left.items, n.items[i])
	left.items = append(left.items, right.items...)
	left.children = append(left.children, right.children...)
	n.items = append(n.items[:i], n.items[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

func (m *Map[K, V]) minItem(n *node[K, V]) item[K, V] {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.items[0]
}

func (m *Map[K, V]) maxItem(n *node[K, V]) item[K, V] {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.items[len(n.items)-1]
}

// Min returns the smallest key and its value.
func (m *Map[K, V]) Min() (K, V, bool) {
	if m.root == nil {
		var k K
		var v V
		return k, v, false
	}
	it := m.minItem(m.root)
	return it.key, it.val, true
}

// Max returns the largest key and its value.
func (m *Map[K, V]) Max() (K, V, bool) {
	if m.root == nil {
		var k K
		var v V
		return k, v, false
	}
	it := m.maxItem(m.root)
	return it.key, it.val, true
}

// Ascend calls fn for every entry in ascending order until fn returns false.
func (m *Map[K, V]) Ascend(fn func(K, V) bool) {
	m.ascend(m.root, fn)
}

func (m *Map[K, V]) ascend(n *node[K, V], fn func(K, V) bool) bool {
	if n == nil {
		return true
	}
	for i, it := range n.items {
		if !n.leaf() && !m.ascend(n.children[i], fn) {
			return false
		}
		if !fn(it.key, it.val) {
			return false
		}
	}
	if !n.leaf() {
		return m.ascend(n.children[len(n.children)-1], fn)
	}
	return true
}

// AscendFrom calls fn for every entry with key >= from, ascending, until fn
// returns false.
func (m *Map[K, V]) AscendFrom(from K, fn func(K, V) bool) {
	m.ascendFrom(m.root, from, fn)
}

func (m *Map[K, V]) ascendFrom(n *node[K, V], from K, fn func(K, V) bool) bool {
	if n == nil {
		return true
	}
	i, _ := m.find(n, from)
	for ; i < len(n.items); i++ {
		if !n.leaf() && !m.ascendFrom(n.children[i], from, fn) {
			return false
		}
		if !fn(n.items[i].key, n.items[i].val) {
			return false
		}
		// Subsequent subtrees are all >= from; switch to full ascent.
		if !n.leaf() {
			for j := i + 1; j < len(n.items); j++ {
				if !m.ascend(n.children[j], fn) {
					return false
				}
				if !fn(n.items[j].key, n.items[j].val) {
					return false
				}
			}
			return m.ascend(n.children[len(n.children)-1], fn)
		}
	}
	if !n.leaf() {
		return m.ascendFrom(n.children[len(n.children)-1], from, fn)
	}
	return true
}

// Descend calls fn for every entry in descending order until fn returns
// false.
func (m *Map[K, V]) Descend(fn func(K, V) bool) {
	m.descend(m.root, fn)
}

func (m *Map[K, V]) descend(n *node[K, V], fn func(K, V) bool) bool {
	if n == nil {
		return true
	}
	for i := len(n.items) - 1; i >= 0; i-- {
		if !n.leaf() && !m.descend(n.children[i+1], fn) {
			return false
		}
		if !fn(n.items[i].key, n.items[i].val) {
			return false
		}
	}
	if !n.leaf() {
		return m.descend(n.children[0], fn)
	}
	return true
}

// Floor returns the largest entry with key <= k.
func (m *Map[K, V]) Floor(k K) (K, V, bool) {
	var bestK K
	var bestV V
	found := false
	n := m.root
	for n != nil {
		i, ok := m.find(n, k)
		if ok {
			return n.items[i].key, n.items[i].val, true
		}
		if i > 0 {
			bestK, bestV, found = n.items[i-1].key, n.items[i-1].val, true
		}
		if n.leaf() {
			break
		}
		n = n.children[i]
	}
	return bestK, bestV, found
}

// Ceiling returns the smallest entry with key >= k.
func (m *Map[K, V]) Ceiling(k K) (K, V, bool) {
	var bestK K
	var bestV V
	found := false
	n := m.root
	for n != nil {
		i, ok := m.find(n, k)
		if ok {
			return n.items[i].key, n.items[i].val, true
		}
		if i < len(n.items) {
			bestK, bestV, found = n.items[i].key, n.items[i].val, true
		}
		if n.leaf() {
			break
		}
		n = n.children[i]
	}
	return bestK, bestV, found
}

// Clear removes all entries.
func (m *Map[K, V]) Clear() {
	m.root = nil
	m.length = 0
}

// Height returns the height of the tree (0 for empty, 1 for a lone root).
// It is exported for tests that check balance invariants.
func (m *Map[K, V]) Height() int {
	h := 0
	for n := m.root; n != nil; {
		h++
		if n.leaf() {
			break
		}
		n = n.children[0]
	}
	return h
}

// CheckInvariants panics if structural B-tree invariants are violated.
// Intended for tests.
func (m *Map[K, V]) CheckInvariants() {
	if m.root == nil {
		if m.length != 0 {
			panic("btree: nil root with nonzero length")
		}
		return
	}
	count := m.check(m.root, true)
	if count != m.length {
		panic("btree: length mismatch")
	}
	// Verify global ordering.
	var prev *K
	m.Ascend(func(k K, _ V) bool {
		if prev != nil && !m.less(*prev, k) {
			panic("btree: keys out of order")
		}
		kk := k
		prev = &kk
		return true
	})
}

func (m *Map[K, V]) check(n *node[K, V], isRoot bool) int {
	if !isRoot && len(n.items) < m.degree-1 {
		panic("btree: underfull node")
	}
	if len(n.items) > 2*m.degree-1 {
		panic("btree: overfull node")
	}
	count := len(n.items)
	if !n.leaf() {
		if len(n.children) != len(n.items)+1 {
			panic("btree: child count mismatch")
		}
		for _, c := range n.children {
			count += m.check(c, false)
		}
	}
	return count
}
