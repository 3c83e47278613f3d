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
// that has only interned nodes ≤ 63: the bloom bit may collide with an
// in-range node's bit, but the out-of-range node cannot be a member, and
// the valid extension must not be rejected. (Regression: the
// exact-summary fast path used to trust the collided bit.)
func TestInternAliasQueryOnExactTable(t *testing.T) {
	tab := NewTable()
	p := tab.Extend(EmptyID, 6, 7) // 6 and 70 share bloom bit 6
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

// TestInternAliasedNodes drives node ids past the exact range of the
// bloom word so membership falls back to the parent walk.
func TestInternAliasedNodes(t *testing.T) {
	tab := NewTable()
	// 100 and 36 share bit 36 (100 % 64); 164 shares it too.
	p := tab.Extend(EmptyID, 100, 5)
	if tab.Contains(p, 36) || tab.Contains(p, 164) {
		t.Fatal("bloom alias reported as member")
	}
	if !tab.Contains(p, 100) || !tab.Contains(p, 5) {
		t.Fatal("member missing")
	}
	if got := tab.Extend(p, 164, 100); got.IsInvalid() {
		t.Fatal("aliased non-member rejected")
	}
	if got := tab.Extend(tab.Extend(p, 164, 100), 100, 164); !got.IsInvalid() {
		t.Fatal("aliased member accepted (loop)")
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
// deciding new paths and first-time loop verdicts in the child maps the
// batches are probing.
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
// has been seen": a warm batch mixing index hits, invalid and empty
// sources, contiguity mismatches and cached loop verdicts allocates
// nothing, with sel nil or a subset.
func TestExtendSelDoesNotAllocate(t *testing.T) {
	tab := NewTable()
	src := []PathID{
		tab.Intern(FromNodes(1, 2, 3)),  // hit: 0->1->2->3
		InvalidID,                       // invalid source
		tab.Intern(FromNodes(1, 0, 3)),  // cached loop on 0
		EmptyID,                         // hit: 0->1
		tab.Intern(FromNodes(2, 3)),     // not contiguous with (0, 1)
		tab.Intern(FromNodes(1, 70, 0)), // cached aliased loop walk
	}
	want := []PathID{tab.Intern(FromNodes(0, 1, 2, 3)), InvalidID, InvalidID, tab.Intern(FromNodes(0, 1)), InvalidID, InvalidID}
	out := make([]PathID, len(src))
	sel := []int32{0, 2, 5}
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
