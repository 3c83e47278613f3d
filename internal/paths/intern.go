// Hash-consed path interning: a Table assigns every simple path a small
// integer PathID such that equal paths always receive the same id. Paths
// are stored as a parent-pointer trie — an interned non-empty path is
// (parent PathID, head Arc), the head arc prepended to the parent path —
// and every entry also keeps the path's exact node set, a bit set of
// ⌈(largest node interned + 1)/64⌉ words, so node membership (path(v)
// conditions and the loop check alike) is one word test. Extensions are
// indexed per arc: Extend is one lookup of its arc's open-addressed
// index plus one probe of the parent id (amortised O(1) in the path's
// fan-out, allocation-free once the extension has been seen), and a
// rejected loop is remembered there as InvalidID, so the loop check runs
// once per (path, arc). Equality is a single integer compare. The Table
// is safe for concurrent use; lookups of already-seen extensions proceed
// under a shared read lock.
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
// head(p), head(parent(p)), … down to EmptyID. Its node set lives in
// Table.nodes, not here, so that the set can widen without touching the
// entries.
type entry struct {
	parent PathID
	head   Arc
	last   int32 // destination node (the last node of the path)
	length int32 // number of arcs
}

// arcKey is the first level of the extension index: the arc (i, j)
// being prepended. The second level is the arc's arcIndex.
type arcKey struct{ i, j int32 }

// Table is a hash-consing table for simple paths. The zero value is not
// usable; construct with NewTable. All methods are safe for concurrent
// use; a batch of extensions by one arc costs one arc lookup and then one
// index probe per cell.
type Table struct {
	mu      sync.RWMutex
	entries []entry
	// nodes holds the exact node set of every entry, words uint64s per
	// entry in id order: node v of path p is bit v&63 of
	// nodes[(p-1)*words + v>>6]. words covers the largest node interned
	// so far; a larger node widens the slab under the write lock.
	nodes []uint64
	words int
	index map[arcKey]*arcIndex
}

// NewTable returns an empty table containing only [] and ⊥.
func NewTable() *Table {
	return &Table{words: 1, index: make(map[arcKey]*arcIndex)}
}

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
// Path.Contains, with one test of p's node set: a node past the largest
// one interned, or a negative one, is on no path.
func (t *Table) Contains(p PathID, v int) bool {
	if p <= EmptyID {
		return false
	}
	t.mu.RLock()
	in := t.contains(p, v)
	t.mu.RUnlock()
	return in
}

// contains is Contains with the read lock held, for a non-empty p.
func (t *Table) contains(p PathID, v int) bool {
	w := uint(v) >> 6 // a negative v wraps past every word
	if w >= uint(t.words) {
		return false
	}
	return t.nodes[(int(p)-1)*t.words+int(w)]>>(uint(v)&63)&1 != 0
}

// CanExtend reports whether prepending the arc (i, j) to p yields a
// simple path, mirroring Path.CanExtend. It never interns anything.
func (t *Table) CanExtend(p PathID, i, j int) bool {
	if p.IsInvalid() || !arcOK(i, j) {
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
	if p.IsInvalid() || !arcOK(i, j) {
		return InvalidID
	}
	miss := false
	t.mu.RLock()
	id, ok := t.index[arcKey{int32(i), int32(j)}].get(p)
	if !ok {
		id = t.unseen(p, j, &miss)
	}
	t.mu.RUnlock()
	if !miss {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insert(p, i, j)
}

// pendingID is an internal sentinel used by unseen to mark cells whose
// extension has not been seen; it never escapes.
const pendingID PathID = -2

// ExtendSel is the batched form of Extend used by the columnar σ kernels:
// it computes out[x] = Extend(src[x], i, j) for every selected column x —
// the ascending indices in sel, or every x of src when sel is nil. A
// convergence sweep extends whole columns by the same arc, so the batch
// takes the read lock once, looks up the arc's index once and then
// costs one index probe per cell, cached loop verdicts included; cells
// never seen before are resolved together under one write lock.
func (t *Table) ExtendSel(src, out []PathID, sel []int32, i, j int) {
	if !arcOK(i, j) {
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
			id, ok := col.get(p)
			if !ok {
				id = t.unseen(p, j, &miss)
			}
			out[x] = id
		}
	} else {
		for _, x := range sel {
			id, ok := col.get(src[x])
			if !ok {
				id = t.unseen(src[x], j, &miss)
			}
			out[x] = id
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

// unseen answers, under the read lock, the extension of a p that the
// arc's index has no slot for (every p while the arc has no index): ⊥
// stays ⊥, a parent that does not start at j is not contiguous, and
// anything else is marked pending for insert. A seen extension never
// gets here: get answers it with its id or cached loop verdict.
func (t *Table) unseen(p PathID, j int, miss *bool) PathID {
	if p.IsInvalid() || p != EmptyID && int(t.at(p).head.From) != j {
		return InvalidID
	}
	*miss = true
	return pendingID
}

// insert decides a contiguous extension of p by (i, j), both
// non-negative, under the write lock and records the verdict: the new
// path's id, or InvalidID when i is already on p (one node-set test).
// Another writer may have decided it since the caller's probe, so the
// arc's index is consulted first. The new entry's node set is its
// parent's plus i and j, after widening the slab if either node is past
// it.
func (t *Table) insert(p PathID, i, j int) PathID {
	key := arcKey{int32(i), int32(j)}
	col := t.index[key]
	if id, ok := col.get(p); ok {
		return id
	}
	if col == nil {
		col = newArcIndex()
		t.index[key] = col
	}
	if p != EmptyID && t.contains(p, i) {
		col.put(p, InvalidID)
		return InvalidID
	}
	if w := max(i, j)>>6 + 1; w > t.words {
		t.widen(w)
	}
	e := entry{parent: p, head: Arc{From: i, To: j}, last: int32(j), length: 1}
	if p == EmptyID {
		t.nodes = append(t.nodes, make([]uint64, t.words)...)
	} else {
		pe := t.at(p)
		e.last = pe.last
		e.length = pe.length + 1
		base := (int(p) - 1) * t.words
		t.nodes = append(t.nodes, t.nodes[base:base+t.words]...)
	}
	set := t.nodes[len(t.nodes)-t.words:]
	set[i>>6] |= 1 << (uint(i) & 63)
	set[j>>6] |= 1 << (uint(j) & 63)
	t.entries = append(t.entries, e)
	id := PathID(len(t.entries))
	col.put(p, id)
	return id
}

// widen re-lays the node-set slab out at w words per entry, under the
// write lock. Readers never see a half-widened slab, and a node set's
// bits keep their meaning; only the stride changes.
func (t *Table) widen(w int) {
	nodes := make([]uint64, len(t.entries)*w, (len(t.entries)+1)*w)
	for k := range t.entries {
		copy(nodes[k*w:], t.nodes[k*t.words:(k+1)*t.words])
	}
	t.nodes, t.words = nodes, w
}

// arcOK reports whether (i, j) can be an arc of a simple path at all:
// two distinct, non-negative nodes (i|j is negative iff either is).
func arcOK(i, j int) bool { return i != j && i|j >= 0 }

// arcIndex is the second level of the extension index: an insert-only
// open-addressing table from a parent id (EmptyID for the one-arc path)
// to the id of its extension by the arc, or to InvalidID once the
// extension has been found to loop. An empty slot is (InvalidID,
// InvalidID): an invalid parent is never stored, so a lookup of it stops
// at the first empty slot and reads its own answer, ⊥. Slots are probed
// linearly from a multiplicative hash of the parent, and the table
// doubles (under the write lock) before it is half full, which keeps
// probe runs short.
type arcIndex struct {
	slots []extSlot // len a power of two
	shift uint      // 32 − log₂ len(slots)
	used  int
}

type extSlot struct{ parent, child PathID }

// newArcIndex returns an empty index of eight slots.
func newArcIndex() *arcIndex {
	x := &arcIndex{}
	x.alloc(3)
	return x
}

// alloc gives x 2^bits empty slots.
func (x *arcIndex) alloc(bits uint) {
	x.slots = make([]extSlot, 1<<bits)
	for k := range x.slots {
		x.slots[k] = extSlot{InvalidID, InvalidID}
	}
	x.shift = 32 - bits
}

// home is the first slot probed for parent p (Fibonacci hashing: the
// top bits of p·2³²/φ).
func (x *arcIndex) home(p PathID) uint32 { return uint32(p) * 0x9E3779B9 >> x.shift }

// get returns the child recorded for parent p, and (InvalidID, true) for
// p = InvalidID; x may be nil.
func (x *arcIndex) get(p PathID) (PathID, bool) {
	if x == nil {
		return 0, false
	}
	mask := uint32(len(x.slots) - 1)
	for h := x.home(p); ; h = (h + 1) & mask {
		s := x.slots[h]
		if s.parent == p {
			return s.child, true
		}
		if s.parent == InvalidID {
			return 0, false
		}
	}
}

// put records parent p's child, which get has just reported missing.
func (x *arcIndex) put(p, child PathID) {
	if 2*(x.used+1) > len(x.slots) {
		old := x.slots
		x.alloc(32 - x.shift + 1)
		for _, s := range old {
			if s.parent != InvalidID {
				x.place(s)
			}
		}
	}
	x.place(extSlot{p, child})
	x.used++
}

// place stores s in the first empty slot from its home.
func (x *arcIndex) place(s extSlot) {
	mask := uint32(len(x.slots) - 1)
	h := x.home(s.parent)
	for x.slots[h].parent != InvalidID {
		h = (h + 1) & mask
	}
	x.slots[h] = s
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
