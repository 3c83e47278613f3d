// Hash-consed path interning: a Table assigns every simple path a small
// integer PathID such that equal paths always receive the same id. Paths
// are stored as a parent-pointer trie — an interned non-empty path is
// (parent PathID, head Arc), the head arc prepended to the parent path —
// so Extend is one map probe (amortised O(1), allocation-free once the
// path exists), equality is a single integer compare, and loop detection
// consults a per-id node-membership summary (a bloom word) before falling
// back to the parent walk. The Table is safe for concurrent use; lookups
// of already-interned paths proceed under a shared read lock.
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

// extKey is the hash-consing key of Extend: extending parent by the arc
// (i, j). For a non-empty parent j is redundant (it must equal the
// parent's source) but including it keeps the empty-parent case — where j
// is free — in the same map.
type extKey struct {
	parent PathID
	i, j   int32
}

// Table is a hash-consing table for simple paths. The zero value is not
// usable; construct with NewTable. All methods are safe for concurrent
// use.
type Table struct {
	mu      sync.RWMutex
	entries []entry
	index   map[extKey]PathID
	// aliased records whether any interned node falls outside [0, 63];
	// while false, the bloom word is an exact membership set and the
	// parent-walk fallback of Contains is never needed.
	aliased bool
}

// NewTable returns an empty table containing only [] and ⊥.
func NewTable() *Table {
	return &Table{index: make(map[extKey]PathID)}
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
	key := extKey{parent: p, i: int32(i), j: int32(j)}
	t.mu.RLock()
	// Probe the index before validating: a hit proves the extension was
	// validated when first interned, so the steady state never pays the
	// membership walk.
	if id, ok := t.index[key]; ok {
		t.mu.RUnlock()
		return id
	}
	if p != EmptyID {
		if int(t.at(p).head.From) != j || t.contains(p, i) {
			t.mu.RUnlock()
			return InvalidID
		}
	}
	t.mu.RUnlock()
	// Validity of (p, i, j) is immutable — paths never change once
	// interned — so it need not be re-checked under the write lock.
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.index[key]; ok {
		return id
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
	t.index[key] = id
	return id
}

// pendingID is an internal sentinel used by ExtendSel to mark cells whose
// extension was not found under the read lock; it never escapes.
const pendingID PathID = -2

// ExtendSel is the batched form of Extend used by the columnar σ kernels:
// it computes out[x] = Extend(src[x], i, j) for every selected column x —
// the ascending indices in sel, or every x of src when sel is nil — under
// a single read-lock acquisition. A convergence sweep extends whole
// columns by the same arc, so the batch turns one lock round-trip and one
// index probe per cell into one lock round-trip per (edge, row);
// only genuinely new paths fall back to the write path, and paths are
// immutable once interned, so the late re-probe inside Extend is safe.
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
	if sel == nil {
		for x, p := range src {
			out[x] = t.extendLocked(p, i, j, &miss)
		}
	} else {
		for _, x := range sel {
			out[x] = t.extendLocked(src[x], i, j, &miss)
		}
	}
	t.mu.RUnlock()
	if !miss {
		return
	}
	if sel == nil {
		for x, p := range src {
			if out[x] == pendingID {
				out[x] = t.Extend(p, i, j)
			}
		}
	} else {
		for _, x := range sel {
			if out[x] == pendingID {
				out[x] = t.Extend(src[x], i, j)
			}
		}
	}
}

// extendLocked resolves one extension under the read lock held by
// ExtendSel: an index hit or a provable invalidity answers immediately;
// anything else is marked pending for the write path.
func (t *Table) extendLocked(p PathID, i, j int, miss *bool) PathID {
	if p.IsInvalid() {
		return InvalidID
	}
	if id, ok := t.index[extKey{parent: p, i: int32(i), j: int32(j)}]; ok {
		return id
	}
	if p != EmptyID {
		if int(t.at(p).head.From) != j || t.contains(p, i) {
			return InvalidID
		}
	}
	*miss = true
	return pendingID
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
