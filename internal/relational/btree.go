package relational

// btree is an in-memory B-tree mapping index keys (Values, ordered by
// Compare) to sets of row IDs. It backs ordered (range-capable) secondary
// indexes and primary keys. Duplicate keys are allowed; each key holds the
// list of row IDs carrying it.

const btreeDegree = 32 // max children per internal node

type btreeItem struct {
	key  Value
	rows []int64
}

type btreeNode struct {
	items    []btreeItem
	children []*btreeNode // nil for leaves
}

func (n *btreeNode) leaf() bool { return len(n.children) == 0 }

// btree is the tree root plus element count.
type btree struct {
	root *btreeNode
	keys int // distinct keys
	rows int // total row entries
}

func newBTree() *btree {
	return &btree{root: &btreeNode{}}
}

// search returns the position of key in items and whether it was found.
func search(items []btreeItem, key Value) (int, bool) {
	lo, hi := 0, len(items)
	for lo < hi {
		mid := (lo + hi) / 2
		switch Compare(items[mid].key, key) {
		case -1:
			lo = mid + 1
		case 1:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// Insert adds rowID under key.
func (t *btree) Insert(key Value, rowID int64) {
	if len(t.root.items) >= 2*btreeDegree-1 {
		old := t.root
		t.root = &btreeNode{children: []*btreeNode{old}}
		t.root.splitChild(0)
	}
	t.insertNonFull(t.root, key, rowID)
	t.rows++
}

func (t *btree) insertNonFull(n *btreeNode, key Value, rowID int64) {
	for {
		i, found := search(n.items, key)
		if found {
			n.items[i].rows = append(n.items[i].rows, rowID)
			return
		}
		if n.leaf() {
			n.items = append(n.items, btreeItem{})
			copy(n.items[i+1:], n.items[i:])
			n.items[i] = btreeItem{key: key, rows: []int64{rowID}}
			t.keys++
			return
		}
		if len(n.children[i].items) >= 2*btreeDegree-1 {
			n.splitChild(i)
			switch Compare(n.items[i].key, key) {
			case -1:
				i++
			case 0:
				n.items[i].rows = append(n.items[i].rows, rowID)
				return
			}
		}
		n = n.children[i]
	}
}

// splitChild splits the full child at index i, promoting its median item.
func (n *btreeNode) splitChild(i int) {
	child := n.children[i]
	mid := btreeDegree - 1
	median := child.items[mid]
	right := &btreeNode{
		items: append([]btreeItem(nil), child.items[mid+1:]...),
	}
	if !child.leaf() {
		right.children = append([]*btreeNode(nil), child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	child.items = child.items[:mid]

	n.items = append(n.items, btreeItem{})
	copy(n.items[i+1:], n.items[i:])
	n.items[i] = median
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

// Lookup returns the row IDs stored under key (nil if none). The returned
// slice must not be modified.
func (t *btree) Lookup(key Value) []int64 {
	n := t.root
	for {
		i, found := search(n.items, key)
		if found {
			return n.items[i].rows
		}
		if n.leaf() {
			return nil
		}
		n = n.children[i]
	}
}

// Delete removes rowID from under key. When the key's row list empties, the
// key is removed via full rebalancing-free tombstone compaction: the tree
// keeps the key with an empty row list and periodically rebuilds. To keep
// behaviour predictable we rebuild when tombstoned keys exceed half the
// keys.
func (t *btree) Delete(key Value, rowID int64) bool {
	n := t.root
	for {
		i, found := search(n.items, key)
		if found {
			rows := n.items[i].rows
			for j, id := range rows {
				if id == rowID {
					n.items[i].rows = append(rows[:j], rows[j+1:]...)
					t.rows--
					if len(n.items[i].rows) == 0 {
						t.keys--
					}
					t.maybeCompact()
					return true
				}
			}
			return false
		}
		if n.leaf() {
			return false
		}
		n = n.children[i]
	}
}

// maybeCompact rebuilds the tree when tombstones dominate.
func (t *btree) maybeCompact() {
	live := t.keys
	total := t.countItems(t.root)
	if total >= 16 && live*2 < total {
		items := make([]btreeItem, 0, live)
		t.ascend(t.root, func(it btreeItem) bool {
			if len(it.rows) > 0 {
				items = append(items, it)
			}
			return true
		})
		nt := newBTree()
		for _, it := range items {
			for _, id := range it.rows {
				nt.Insert(it.key, id)
			}
		}
		t.root = nt.root
		t.keys = nt.keys
		t.rows = nt.rows
	}
}

func (t *btree) countItems(n *btreeNode) int {
	total := len(n.items)
	for _, c := range n.children {
		total += t.countItems(c)
	}
	return total
}

// Ascend visits all live items in key order; fn returns false to stop.
func (t *btree) Ascend(fn func(key Value, rows []int64) bool) {
	t.ascend(t.root, func(it btreeItem) bool {
		if len(it.rows) == 0 {
			return true
		}
		return fn(it.key, it.rows)
	})
}

func (t *btree) ascend(n *btreeNode, fn func(btreeItem) bool) bool {
	for i, it := range n.items {
		if !n.leaf() {
			if !t.ascend(n.children[i], fn) {
				return false
			}
		}
		if !fn(it) {
			return false
		}
	}
	if !n.leaf() {
		return t.ascend(n.children[len(n.items)], fn)
	}
	return true
}

// Range visits live items with lo <= key <= hi (nil bounds are open) in key
// order; the inclusive flags control boundary handling. It seeks to lo in
// O(log n) instead of walking from the smallest key. fn returns false to
// stop.
func (t *btree) Range(lo, hi *Value, loIncl, hiIncl bool, fn func(key Value, rows []int64) bool) {
	t.rangeNode(t.root, lo, hi, loIncl, hiIncl, fn)
}

// rangeNode walks one subtree for Range. lo is non-nil only on the seek
// path: once the walk is past lo, every later subtree lies above it.
func (t *btree) rangeNode(n *btreeNode, lo, hi *Value, loIncl, hiIncl bool, fn func(Value, []int64) bool) bool {
	start, atLo := 0, false
	if lo != nil {
		start, atLo = search(n.items, *lo)
	}
	for i := start; i < len(n.items); i++ {
		// children[start] holds keys between items[start-1] and
		// items[start]; when items[start] == lo they all lie below lo.
		if !n.leaf() && !(i == start && atLo) {
			sub := lo
			if i > start {
				sub = nil
			}
			if !t.rangeNode(n.children[i], sub, hi, loIncl, hiIncl, fn) {
				return false
			}
		}
		it := n.items[i]
		if i == start && atLo && !loIncl {
			continue
		}
		if hi != nil {
			if c := Compare(it.key, *hi); c > 0 || (c == 0 && !hiIncl) {
				return false
			}
		}
		if len(it.rows) > 0 && !fn(it.key, it.rows) {
			return false
		}
	}
	if !n.leaf() {
		sub := lo
		if start < len(n.items) {
			sub = nil
		}
		return t.rangeNode(n.children[len(n.items)], sub, hi, loIncl, hiIncl, fn)
	}
	return true
}

// bounds returns the smallest live non-NULL key and the largest key the
// tree holds (possibly a tombstone, which only widens the span); ok is false
// when no non-NULL key is live.
func (t *btree) bounds() (first, last Value, ok bool) {
	null := NullValue()
	t.Range(&null, nil, false, false, func(k Value, _ []int64) bool {
		first, ok = k, true
		return false
	})
	n := t.root
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	if len(n.items) > 0 {
		last = n.items[len(n.items)-1].key
	}
	return first, last, ok
}

// Len reports the number of live row entries in the tree.
func (t *btree) Len() int { return t.rows }

// Keys reports the number of distinct live keys.
func (t *btree) Keys() int { return t.keys }

// depth reports the tree height (for invariant tests).
func (t *btree) depth() int {
	d := 1
	for n := t.root; !n.leaf(); n = n.children[0] {
		d++
	}
	return d
}

// checkInvariants verifies B-tree structural invariants; used by property
// tests. It returns an error description or "" when valid.
func (t *btree) checkInvariants() string {
	var prev *Value
	ok := ""
	depth := -1
	var walk func(n *btreeNode, d int) bool
	walk = func(n *btreeNode, d int) bool {
		if n != t.root && len(n.items) < btreeDegree-1 {
			// Our insert-only splitting keeps nodes at least half full except
			// the root; tombstone compaction rebuilds preserve this.
			if len(n.items) == 0 {
				ok = "empty non-root node"
				return false
			}
		}
		if n.leaf() {
			if depth == -1 {
				depth = d
			} else if depth != d {
				ok = "leaves at different depths"
				return false
			}
		} else if len(n.children) != len(n.items)+1 {
			ok = "child count mismatch"
			return false
		}
		for i, it := range n.items {
			if !n.leaf() && !walk(n.children[i], d+1) {
				return false
			}
			if prev != nil && Compare(*prev, it.key) >= 0 {
				ok = "keys out of order"
				return false
			}
			k := it.key
			prev = &k
		}
		if !n.leaf() {
			return walk(n.children[len(n.items)], d+1)
		}
		return true
	}
	walk(t.root, 0)
	return ok
}
