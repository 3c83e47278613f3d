package paths

import (
	"fmt"
	"sync"
	"testing"
)

func TestInternBasics(t *testing.T) {
	tab := NewTable()
	if !InvalidID.IsInvalid() || InvalidID.IsEmpty() {
		t.Fatal("InvalidID classification")
	}
	if EmptyID.IsInvalid() || !EmptyID.IsEmpty() {
		t.Fatal("EmptyID classification")
	}
	if got := tab.Len(EmptyID); got != 0 {
		t.Fatalf("Len([]) = %d", got)
	}
	if _, ok := tab.Source(EmptyID); ok {
		t.Fatal("Source([]) should not exist")
	}
	if !tab.Path(InvalidID).IsInvalid() {
		t.Fatal("Path(⊥) not invalid")
	}
	if !tab.Path(EmptyID).IsEmpty() {
		t.Fatal("Path(0) not empty")
	}

	p := tab.Extend(EmptyID, 1, 2) // path 1->2
	if p.IsInvalid() {
		t.Fatal("Extend([], 1, 2) invalid")
	}
	if got := tab.String(p); got != "1->2" {
		t.Fatalf("String = %q", got)
	}
	q := tab.Extend(p, 0, 1) // 0->1->2
	if got := tab.String(q); got != "0->1->2" {
		t.Fatalf("String = %q", got)
	}
	if got := tab.Len(q); got != 2 {
		t.Fatalf("Len = %d", got)
	}
	if src, _ := tab.Source(q); src != 0 {
		t.Fatalf("Source = %d", src)
	}
	if dst, _ := tab.Destination(q); dst != 2 {
		t.Fatalf("Destination = %d", dst)
	}
	for _, v := range []int{0, 1, 2} {
		if !tab.Contains(q, v) {
			t.Fatalf("Contains(%d) = false", v)
		}
	}
	if tab.Contains(q, 3) {
		t.Fatal("Contains(3) = true")
	}
}

func TestInternHashConsing(t *testing.T) {
	tab := NewTable()
	a := tab.Extend(tab.Extend(EmptyID, 1, 2), 0, 1)
	b := tab.Intern(FromNodes(0, 1, 2))
	if a != b {
		t.Fatalf("same path interned to different ids: %d vs %d", a, b)
	}
	if sz := tab.Size(); sz != 2 {
		t.Fatalf("table size %d, want 2 (1->2 and 0->1->2)", sz)
	}
}

func TestInternLoopRejection(t *testing.T) {
	tab := NewTable()
	p := tab.Extend(EmptyID, 1, 2)
	for _, tc := range []struct{ i, j int }{
		{2, 1},  // j not the source
		{2, 2},  // self loop
		{2, 1},  // repeated node via wrong source
		{-1, 2}, // j mismatch (source is 1)
	} {
		if got := tab.Extend(p, tc.i, tc.j); !got.IsInvalid() {
			t.Fatalf("Extend(1->2, %d, %d) = %v, want ⊥", tc.i, tc.j, tab.String(got))
		}
	}
	// Extending with a node already on the path loops.
	q := tab.Extend(p, 0, 1) // 0->1->2
	if got := tab.Extend(q, 2, 0); !got.IsInvalid() {
		t.Fatal("loop 2->0->1->2 accepted")
	}
	if tab.CanExtend(q, 2, 0) {
		t.Fatal("CanExtend accepted a loop")
	}
	if !tab.CanExtend(q, 3, 0) {
		t.Fatal("CanExtend rejected a valid extension")
	}
	// Extending ⊥ stays ⊥.
	if got := tab.Extend(InvalidID, 0, 1); !got.IsInvalid() {
		t.Fatal("Extend(⊥) not ⊥")
	}
}

// TestInternAliasQueryOnExactTable queries nodes ≥ 64 against a table
// that has only interned nodes ≤ 63: node 70 is not on 6->7 even though
// 70 ≡ 6 (mod 64), and the valid extension through it must not be
// rejected. A regression test that membership never aliases: a summary
// keyed by v mod 64 once answered true here.
func TestInternAliasQueryOnExactTable(t *testing.T) {
	tab := NewTable()
	p := tab.Extend(EmptyID, 6, 7)
	if tab.Contains(p, 70) {
		t.Fatal("Contains(6->7, 70) = true")
	}
	if !tab.CanExtend(p, 70, 6) {
		t.Fatal("CanExtend(6->7, 70, 6) = false")
	}
	if q := tab.Extend(p, 70, 6); q.IsInvalid() {
		t.Fatal("valid simple path 70->6->7 rejected")
	}
	if id := NewTable().Intern(FromNodes(70, 6, 7)); id.IsInvalid() {
		t.Fatal("Intern(70->6->7) rejected on a fresh table")
	}
}

// TestInternAliasedNodes is the same regression once nodes past 63 are
// on the table's paths: 36, 100 and 164 agree mod 64, and each must be
// a member exactly when it is on the path, so a non-member extends and
// a member loops.
func TestInternAliasedNodes(t *testing.T) {
	tab := NewTable()
	p := tab.Extend(EmptyID, 100, 5)
	if tab.Contains(p, 36) || tab.Contains(p, 164) {
		t.Fatal("node congruent to a member mod 64 reported as member")
	}
	if !tab.Contains(p, 100) || !tab.Contains(p, 5) {
		t.Fatal("member missing")
	}
	if got := tab.Extend(p, 164, 100); got.IsInvalid() {
		t.Fatal("non-member congruent to a member rejected")
	}
	if got := tab.Extend(tab.Extend(p, 164, 100), 100, 164); !got.IsInvalid() {
		t.Fatal("member accepted (loop)")
	}
}

// TestContainsAcrossWiden widens the node-set slab twice under paths
// interned before it: every membership answer recorded over nodes < 64
// must survive the re-layouts, all must equal Path.Contains, and the
// paths through the new nodes must reject loops through them.
func TestContainsAcrossWiden(t *testing.T) {
	tab := NewTable()
	var refs []Path
	for s := 0; s < 64; s++ {
		refs = append(refs, FromNodes(s, (s+7)%64, (s+13)%64, (s+29)%64))
	}
	refs = append(refs, EnumerateAllSimple(4)...)
	ids := make([]PathID, len(refs))
	for x, p := range refs {
		ids[x] = tab.Intern(p)
	}
	const top = 300
	before := make([][]bool, len(ids))
	for x, id := range ids {
		before[x] = make([]bool, top+1)
		for v := -1; v < top; v++ {
			before[x][v+1] = tab.Contains(id, v)
		}
	}
	if tab.words != 1 {
		t.Fatalf("%d words per path before any node past 63", tab.words)
	}
	wide := []Path{FromNodes(130, 0, 7, 13, 29), FromNodes(299, 130, 0, 7, 13, 29)}
	for _, p := range wide {
		refs = append(refs, p)
		ids = append(ids, tab.Intern(p))
	}
	if tab.words != 5 {
		t.Fatalf("%d words per path after node 299, want 5", tab.words)
	}
	for x, id := range ids {
		for v := -1; v < top; v++ {
			got := tab.Contains(id, v)
			if x < len(before) && got != before[x][v+1] {
				t.Fatalf("Contains(%s, %d) changed across the widening", refs[x], v)
			}
			if got != refs[x].Contains(v) {
				t.Fatalf("Contains(%s, %d) = %v", refs[x], v, got)
			}
		}
	}
	top299 := ids[len(ids)-1]
	for _, i := range []int{130, 0, 29} {
		if tab.CanExtend(top299, i, 299) || !tab.Extend(top299, i, 299).IsInvalid() {
			t.Fatalf("loop %d->%s accepted", i, refs[len(refs)-1])
		}
	}
	out := make([]PathID, 2)
	tab.ExtendSel(ids[len(ids)-2:], out, nil, 299, 130)
	if want := tab.Intern(FromNodes(299, 130, 0, 7, 13, 29)); out[0] != want || out[1] != InvalidID {
		t.Fatalf("ExtendSel by (299, 130) = %s, %s", tab.String(out[0]), tab.String(out[1]))
	}
}

// TestExtendIndexGrowth extends thousands of parents by one arc, so the
// arc's index doubles through every size up to 8192 slots, with a cached
// loop verdict on every third parent. After each rehash every extension
// decided so far must read back unchanged, and the index stays at most
// half full.
func TestExtendIndexGrowth(t *testing.T) {
	tab := NewTable()
	const n = 3000
	refs := make([]Path, n)
	parents := make([]PathID, n)
	for x := range refs {
		k := x + 3
		if x%3 == 0 {
			refs[x] = FromNodes(1, 2, k, 0) // loops under (2, 1)
		} else {
			refs[x] = FromNodes(1, k, 0)
		}
		parents[x] = tab.Intern(refs[x])
	}
	ids := make([]PathID, n)
	size, sizes := 0, 0
	for x, p := range parents {
		ids[x] = tab.Extend(p, 2, 1)
		if want := refs[x].Extend(2, 1); !tab.Path(ids[x]).Equal(want) {
			t.Fatalf("Extend(%s, 2, 1) = %s, want %s", refs[x], tab.String(ids[x]), want)
		}
		col := tab.index[arcKey{2, 1}]
		if 2*col.used > len(col.slots) || col.used != x+1 {
			t.Fatalf("%d verdicts in %d slots after %d extensions", col.used, len(col.slots), x+1)
		}
		if len(col.slots) == size {
			continue
		}
		size = len(col.slots)
		sizes++
		for y := 0; y <= x; y++ {
			if got := tab.Extend(parents[y], 2, 1); got != ids[y] {
				t.Fatalf("at %d slots, Extend(%s, 2, 1) = %s, was %s", size, refs[y], tab.String(got), tab.String(ids[y]))
			}
		}
	}
	if size != 8192 || sizes != 11 {
		t.Fatalf("index grew to %d slots in %d sizes, want 8192 in 11", size, sizes)
	}
	out := make([]PathID, n)
	tab.ExtendSel(parents, out, nil, 2, 1)
	for x := range out {
		if out[x] != ids[x] {
			t.Fatalf("ExtendSel(%s, 2, 1) = %s, Extend = %s", refs[x], tab.String(out[x]), tab.String(ids[x]))
		}
	}
}

func TestInternCompareMatchesReference(t *testing.T) {
	tab := NewTable()
	all := EnumerateAllSimple(4)
	ids := make([]PathID, len(all))
	for i, p := range all {
		ids[i] = tab.Intern(p)
	}
	all = append(all, Invalid)
	ids = append(ids, InvalidID)
	for i := range all {
		for j := range all {
			want := all[i].Compare(all[j])
			got := tab.Compare(ids[i], ids[j])
			if got != want {
				t.Fatalf("Compare(%s, %s) = %d, want %d", all[i], all[j], got, want)
			}
			if (ids[i] == ids[j]) != all[i].Equal(all[j]) {
				t.Fatalf("id equality disagrees with path equality for (%s, %s)", all[i], all[j])
			}
		}
	}
}

func TestInternRoundTrip(t *testing.T) {
	tab := NewTable()
	for _, p := range EnumerateAllSimple(5) {
		id := tab.Intern(p)
		back := tab.Path(id)
		if !back.Equal(p) {
			t.Fatalf("round trip %s -> %d -> %s", p, id, back)
		}
		if tab.Len(id) != p.Len() {
			t.Fatalf("Len mismatch for %s", p)
		}
		if got, want := tab.String(id), p.String(); got != want {
			t.Fatalf("String %q != %q", got, want)
		}
	}
}

// TestInternConcurrent hammers one table from several goroutines; the
// race detector checks the locking discipline, and hash-consing must
// still be canonical afterwards. Half the goroutines intern chains with
// Extend; the other half share one column and run ExtendSel batches by
// arcs into node 1, while writers extend fresh parents by the same arcs,
// deciding new paths and first-time loop verdicts in the indexes the
// batches are probing. The readers also check Contains on their column
// while one more writer interns paths through ever-larger nodes, so the
// node-set slab widens under them again and again.
func TestInternConcurrent(t *testing.T) {
	tab := NewTable()
	const n = 6
	// The shared column: [], ⊥ and paths 1->k->0, some past node 63.
	refs := []Path{Empty, Invalid}
	for k := 2; k < 12; k++ {
		refs = append(refs, FromNodes(1, k*7, 0))
	}
	col := make([]PathID, len(refs))
	for x, p := range refs {
		col[x] = tab.Intern(p)
	}
	// Arcs into node 1: i = 0 loops on every path, i = k*7 on one, i = 5
	// and i = 100 on none; every fourth batch selects the odd columns.
	heads := []int{0, 5, 14, 63, 100}
	var odd []int32
	for x := 1; x < len(col); x += 2 {
		odd = append(odd, int32(x))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the widener: one new 64-node band per path
		defer wg.Done()
		for rep := 0; rep < 100; rep++ {
			v := 1000 + 64*rep
			tab.Intern(FromNodes(v, v+1, 0))
		}
	}()
	ids := make([]PathID, 8)
	fails := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g >= 4 { // reader of the shared column
				out := make([]PathID, len(col))
				for rep := 0; rep < 200; rep++ {
					var sel []int32
					if rep%4 == 3 {
						sel = odd
					}
					i := heads[(rep+g)%len(heads)]
					tab.ExtendSel(col, out, sel, i, 1)
					for x := range col {
						if sel != nil && x%2 == 0 {
							continue
						}
						if want := refs[x].Extend(i, 1); !tab.Path(out[x]).Equal(want) {
							fails <- fmt.Sprintf("ExtendSel(%s, %d, 1) = %s, want %s", refs[x], i, tab.String(out[x]), want)
							return
						}
						for _, v := range []int{-1, 0, 1, i, 70, 1000 + 64*rep/2} {
							if tab.Contains(col[x], v) != refs[x].Contains(v) {
								fails <- fmt.Sprintf("Contains(%s, %d) = %v", refs[x], v, !refs[x].Contains(v))
								return
							}
						}
					}
				}
				return
			}
			base := g % 2
			var last PathID
			for rep := 0; rep < 200; rep++ {
				id := EmptyID
				for v := n - 1; v > 0; v-- {
					id = tab.Extend(id, base+v-1, base+v)
					tab.Contains(id, base+v)
					tab.Compare(id, last)
				}
				last = id
				// A fresh parent 1->k->0 extended by the readers' arcs.
				fresh := tab.Intern(FromNodes(1, 200+rep*4+g, 0))
				for _, i := range heads {
					tab.Extend(fresh, i, 1)
				}
			}
			ids[g] = last
		}(g)
	}
	wg.Wait()
	close(fails)
	for msg := range fails {
		t.Fatal(msg)
	}
	for g := 2; g < 4; g++ {
		if ids[g] != ids[g%2] {
			t.Fatalf("goroutine %d interned a divergent id", g)
		}
	}
	for _, i := range heads {
		for _, k := range []int{14, 203, 997} {
			p := FromNodes(i, 1, k, 0)
			if got := tab.Extend(tab.Intern(FromNodes(1, k, 0)), i, 1); got != tab.Intern(p) {
				t.Fatalf("Extend to %s = %s, Intern = %s", p, tab.String(got), tab.String(tab.Intern(p)))
			}
		}
	}
}

// TestExtendSelDoesNotAllocate pins "allocation-free once the extension
// has been seen": a warm batch mixing index hits (one through a node
// past 63, so the node sets are two words wide), invalid and empty
// sources, contiguity mismatches and cached loop verdicts allocates
// nothing, with sel nil or a subset.
func TestExtendSelDoesNotAllocate(t *testing.T) {
	tab := NewTable()
	src := []PathID{
		tab.Intern(FromNodes(1, 2, 3)),   // hit: 0->1->2->3
		InvalidID,                        // invalid source
		tab.Intern(FromNodes(1, 0, 3)),   // cached loop on 0
		EmptyID,                          // hit: 0->1
		tab.Intern(FromNodes(2, 3)),      // not contiguous with (0, 1)
		tab.Intern(FromNodes(1, 70, 0)),  // cached loop on 0, through node 70
		tab.Intern(FromNodes(1, 100, 3)), // hit through node 100: 0->1->100->3
	}
	want := []PathID{tab.Intern(FromNodes(0, 1, 2, 3)), InvalidID, InvalidID, tab.Intern(FromNodes(0, 1)), InvalidID, InvalidID, tab.Intern(FromNodes(0, 1, 100, 3))}
	out := make([]PathID, len(src))
	sel := []int32{0, 2, 5, 6}
	tab.ExtendSel(src, out, nil, 0, 1) // decides the loops once
	allocs := testing.AllocsPerRun(100, func() {
		tab.ExtendSel(src, out, nil, 0, 1)
		tab.ExtendSel(src, out, sel, 0, 1)
	})
	if allocs != 0 {
		t.Fatalf("warm ExtendSel allocated %.1f times per run", allocs)
	}
	for x := range want {
		if out[x] != want[x] {
			t.Fatalf("out[%d] = %s, want %s", x, tab.String(out[x]), tab.String(want[x]))
		}
	}
}
