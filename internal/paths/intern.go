// Hash-consed path interning: a Table assigns every simple path a small
// integer PathID such that equal paths always receive the same id. Paths
// are stored as a parent-pointer trie — an interned non-empty path is
// (parent PathID, head Arc), the head arc prepended to the parent path.
// Extensions are indexed per arc: Extend is one lookup of its arc's
// child map plus one 32-bit probe of the parent id (amortised O(1) in
// the path's fan-out, allocation-free once the extension has been seen),
// and a rejected loop is remembered there as InvalidID, so the
// node-membership check (a per-id bloom word before the parent walk)
// runs once per (path, arc). Equality is a single integer compare. The
// Table is safe for concurrent use; lookups of already-seen extensions
// proceed under a shared read lock.
//
// This is the NDN-DPDK recipe — intern variable-length name-like data
// into fixed-size ids with pooled storage — applied to the simple paths
// of Section 5.1: convergence workloads re-extend near-identical routes
// over and over, which hash-consing collapses into table hits.
package paths

import "sync"

// PathID identifies an interned path within one Table. Ids from different
// tables are not comparable. The zero value is EmptyID, matching Path's
// zero value being the empty path.
type PathID int32

const (
	// EmptyID is the id of the empty path [] in every table.
	EmptyID PathID = 0
	// InvalidID is the id of the invalid path ⊥ in every table.
	InvalidID PathID = -1
)

// IsInvalid reports whether the id denotes ⊥.
func (p PathID) IsInvalid() bool { return p < 0 }

// IsEmpty reports whether the id denotes [].
func (p PathID) IsEmpty() bool { return p == EmptyID }

// entry is one interned non-empty path: head is the first arc and parent
// the id of the remaining suffix, so the arc sequence of id p is
// head(p), head(parent(p)), … down to EmptyID.
type entry struct {
	parent PathID
	head   Arc
	last   int32  // destination node (the last node of the path)
	length int32  // number of arcs
	bloom  uint64 // membership summary over all nodes of the path
}

// arcKey is the first level of the extension index: the arc (i, j)
// being prepended. The second level, keyed by the parent id (EmptyID for
// the one-arc path), holds the extension's id, or InvalidID once the
// extension has been found to loop.
type arcKey struct{ i, j int32 }

// Table is a hash-consing table for simple paths. The zero value is not
// usable; construct with NewTable. All methods are safe for concurrent
// use; a batch of extensions by one arc costs one arc lookup and then one
// index probe per cell.
type Table struct {
	mu      sync.RWMutex
	entries []entry
	index   map[arcKey]map[PathID]PathID
	// aliased records whether any interned node falls outside [0, 63];
	// while false, the bloom word is an exact membership set and the
	// parent-walk fallback of Contains is never needed.
	aliased bool
}

// NewTable returns an empty table containing only [] and ⊥.
func NewTable() *Table {
	return &Table{index: make(map[arcKey]map[PathID]PathID)}
}

// nodeBit is the bloom-word bit of node v. For the experiment scales
// (n ≤ 64) distinct nodes map to distinct bits, making the summary exact;
// beyond that it degrades gracefully into a bloom filter.
func nodeBit(v int) uint64 { return 1 << (uint(v) & 63) }

// Size returns the number of distinct non-empty paths interned so far.
func (t *Table) Size() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// at returns the entry of a non-empty id; callers hold at least the read
// lock and guarantee p ≥ 1.
func (t *Table) at(p PathID) *entry { return &t.entries[p-1] }

// Len returns the number of arcs of p (0 for ⊥ and [], mirroring
// Path.Len).
func (t *Table) Len(p PathID) int {
	if p <= EmptyID {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int(t.at(p).length)
}

// Source returns the first node of p; ok is false for ⊥ and [].
func (t *Table) Source(p PathID) (int, bool) {
	if p <= EmptyID {
		return 0, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int(t.at(p).head.From), true
}

// Destination returns the last node of p; ok is false for ⊥ and [].
func (t *Table) Destination(p PathID) (int, bool) {
	if p <= EmptyID {
		return 0, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int(t.at(p).last), true
}

// Contains reports whether node v appears anywhere in p, mirroring
// Path.Contains: the bloom word rejects most non-members in O(1), and a
// positive answer is confirmed by the parent walk unless the summary is
// known to be exact.
func (t *Table) Contains(p PathID, v int) bool {
	if p <= EmptyID {
		return false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.contains(p, v)
}

// contains is Contains with the read lock held.
func (t *Table) contains(p PathID, v int) bool {
	e := t.at(p)
	if e.bloom&nodeBit(v) == 0 {
		return false
	}
	if !t.aliased {
		// No node outside [0, 63] has ever been interned, so the summary
		// is exact for in-range v — the set bit is the node itself — and
		// an out-of-range v cannot be a member at all (its bit was set by
		// some in-range node).
		return uint(v) <= 63
	}
	if int(e.last) == v {
		return true
	}
	for {
		if int(e.head.From) == v {
			return true
		}
		if e.parent == EmptyID {
			return false
		}
		e = t.at(e.parent)
	}
}

// CanExtend reports whether prepending the arc (i, j) to p yields a
// simple path, mirroring Path.CanExtend. It never interns anything.
func (t *Table) CanExtend(p PathID, i, j int) bool {
	if p.IsInvalid() || i == j {
		return false
	}
	if p == EmptyID {
		return true
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(t.at(p).head.From) != j {
		return false
	}
	return !t.contains(p, i)
}

// Extend returns the id of (i,j) :: p, or InvalidID if the extension
// would not be a simple contiguous path — exactly Path.Extend, O(1)
// amortised and allocation-free once the extension has been seen.
func (t *Table) Extend(p PathID, i, j int) PathID {
	if p.IsInvalid() || i == j {
		return InvalidID
	}
	miss := false
	t.mu.RLock()
	id := t.probe(t.index[arcKey{int32(i), int32(j)}], p, j, &miss)
	t.mu.RUnlock()
	if !miss {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insert(p, i, j)
}

// pendingID is an internal sentinel used by probe to mark cells whose
// extension has not been seen; it never escapes.
const pendingID PathID = -2

// ExtendSel is the batched form of Extend used by the columnar σ kernels:
// it computes out[x] = Extend(src[x], i, j) for every selected column x —
// the ascending indices in sel, or every x of src when sel is nil. A
// convergence sweep extends whole columns by the same arc, so the batch
// takes the read lock once, looks up the arc's child map once and then
// costs one index probe per cell, cached loop verdicts included; cells
// never seen before are resolved together under one write lock.
func (t *Table) ExtendSel(src, out []PathID, sel []int32, i, j int) {
	if i == j {
		if sel == nil {
			for x := range src {
				out[x] = InvalidID
			}
		} else {
			for _, x := range sel {
				out[x] = InvalidID
			}
		}
		return
	}
	miss := false
	t.mu.RLock()
	col := t.index[arcKey{int32(i), int32(j)}]
	if sel == nil {
		for x, p := range src {
			out[x] = t.probe(col, p, j, &miss)
		}
	} else {
		for _, x := range sel {
			out[x] = t.probe(col, src[x], j, &miss)
		}
	}
	t.mu.RUnlock()
	if !miss {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if sel == nil {
		for x, p := range src {
			if out[x] == pendingID {
				out[x] = t.insert(p, i, j)
			}
		}
	} else {
		for _, x := range sel {
			if out[x] == pendingID {
				out[x] = t.insert(src[x], i, j)
			}
		}
	}
}

// probe resolves the extension of p by the arc whose child map is col
// (nil if the arc has none yet) under the read lock: a seen extension
// answers with its id or cached loop verdict, a parent that does not
// start at j is not contiguous; anything else is marked pending for
// insert.
func (t *Table) probe(col map[PathID]PathID, p PathID, j int, miss *bool) PathID {
	if p.IsInvalid() {
		return InvalidID
	}
	if id, ok := col[p]; ok {
		return id
	}
	if p != EmptyID && int(t.at(p).head.From) != j {
		return InvalidID
	}
	*miss = true
	return pendingID
}

// insert decides a contiguous extension of p by (i, j) under the write
// lock and records the verdict: the new path's id, or InvalidID when i
// is already on p. Another writer may have decided it since the caller's
// probe, so the child map is consulted first.
func (t *Table) insert(p PathID, i, j int) PathID {
	key := arcKey{int32(i), int32(j)}
	col := t.index[key]
	if id, ok := col[p]; ok {
		return id
	}
	if col == nil {
		col = make(map[PathID]PathID)
		t.index[key] = col
	}
	if p != EmptyID && t.contains(p, i) {
		col[p] = InvalidID
		return InvalidID
	}
	e := entry{parent: p, head: Arc{From: i, To: j}, last: int32(j), length: 1, bloom: nodeBit(i) | nodeBit(j)}
	if p != EmptyID {
		pe := t.at(p)
		e.last = pe.last
		e.length = pe.length + 1
		e.bloom |= pe.bloom
	}
	if uint(i) > 63 || uint(j) > 63 {
		t.aliased = true
	}
	t.entries = append(t.entries, e)
	id := PathID(len(t.entries))
	col[p] = id
	return id
}

// Intern maps a reference Path to its id, interning every prefix along
// the way. It is the bridge from the []Arc representation: paths built
// arc-by-arc through Extend never need it.
func (t *Table) Intern(p Path) PathID {
	if p.IsInvalid() {
		return InvalidID
	}
	id := EmptyID
	arcs := p.arcs
	for k := len(arcs) - 1; k >= 0; k-- {
		id = t.Extend(id, arcs[k].From, arcs[k].To)
		if id.IsInvalid() {
			return InvalidID
		}
	}
	return id
}

// Path materialises the id back into the reference representation.
func (t *Table) Path(p PathID) Path {
	if p.IsInvalid() {
		return Invalid
	}
	if p == EmptyID {
		return Empty
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	arcs := make([]Arc, t.at(p).length)
	for k, id := 0, p; id != EmptyID; k, id = k+1, t.at(id).parent {
		arcs[k] = t.at(id).head
	}
	return Path{arcs: arcs}
}

// Nodes returns the nodes visited by p in order (nil for ⊥ and []),
// mirroring Path.Nodes.
func (t *Table) Nodes(p PathID) []int {
	if p <= EmptyID {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := int(t.at(p).length)
	out := make([]int, 0, n+1)
	out = append(out, int(t.at(p).head.From))
	for id := p; id != EmptyID; id = t.at(id).parent {
		out = append(out, int(t.at(id).head.To))
	}
	return out
}

// Compare orders ids exactly as Path.Compare orders the paths they
// denote: ⊥ greatest, then by length, then lexicographically by arc
// sequence. Hash-consing makes a == b an O(1) early exit, and the walk
// stops at the first shared suffix, since equal suffixes share an id.
func (t *Table) Compare(a, b PathID) int {
	if a == b {
		return 0
	}
	switch {
	case a.IsInvalid():
		return 1
	case b.IsInvalid():
		return -1
	case a == EmptyID:
		return -1
	case b == EmptyID:
		return 1
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	ea, eb := t.at(a), t.at(b)
	if d := ea.length - eb.length; d != 0 {
		if d < 0 {
			return -1
		}
		return 1
	}
	for {
		if d := compareArc(ea.head, eb.head); d != 0 {
			return d
		}
		if ea.parent == eb.parent { // shared suffix: equal from here on
			return 0
		}
		ea, eb = t.at(ea.parent), t.at(eb.parent)
	}
}

// String renders the id like Path.String: ⊥, [], or "1->2->3".
func (t *Table) String(p PathID) string { return t.Path(p).String() }
