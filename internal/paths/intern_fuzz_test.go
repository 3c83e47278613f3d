package paths

import (
	"testing"
)

// FuzzInternDifferential drives a Table and the reference Path
// representation through the same operation sequence and requires them to
// agree at every step: Extend and ExtendSel results (including loop
// rejection and cached loop verdicts), Equal vs id equality, Compare,
// Contains, Len and the Path/Intern round trips.
//
// The input encodes operations over a sixteen-node universe: each byte
// pair (op, arg) either extends one of the held paths, starts a fresh
// one, compares two, or extends a batch of them with ExtendSel. Holding
// several live paths at once exercises sharing inside the trie. Node
// draws 0–7 are nodes 0–7, draws 8–13 are nodes 64–69 (each congruent
// to a low node mod 64, so any aliasing in the node sets shows), draw
// 14 is node 300 (the first path through it widens every node set to
// five words mid-sequence) and draw 15 is node −1: an arc with a
// negative node extends nothing, Path and Table alike.
func FuzzInternDifferential(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x23, 0x30})
	f.Add([]byte{0x10, 0x01, 0x12, 0x20, 0x01})
	f.Add([]byte{0x31, 0x42, 0x53, 0x04, 0x15, 0x21})
	// Slots 0, 1 and 2 hold 1->2. The subset {0, 1} batch by (2, 1)
	// loops on both cells, decides the verdict once and reads it back on
	// the repeat; the full batch then reads it for slot 2.
	f.Add([]byte{0x01, 0x12, 0x06, 0x12, 0x0b, 0x12, 0x13, 0x21, 0x04, 0x21})
	// 64->1, then 0->64->1 (0 and 64 agree mod 64, they are not one
	// node), then the loop 1->0->64->1, batched over all slots.
	f.Add([]byte{0x01, 0x81, 0x01, 0x08, 0x04, 0x10, 0x04, 0x10})
	// 300->1 widens the table and 0->300->1 follows; then (0, −1) is
	// refused on an empty slot, (−1, 0) on 0->300->1 and, batched, on
	// the empty slots.
	f.Add([]byte{0x01, 0xe1, 0x00, 0x0e, 0x05, 0x0f, 0x00, 0xf0, 0x04, 0xf0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const draws = 16
		node := func(k int) int {
			switch k {
			case 14:
				return 300
			case 15:
				return -1
			}
			return k&7 + (k>>3)*64
		}
		tab := NewTable()
		// Slots of live (reference, interned) pairs, all starting empty.
		refs := [4]Path{Empty, Empty, Empty, Empty}
		ids := [4]PathID{EmptyID, EmptyID, EmptyID, EmptyID}

		check := func(slot int) {
			p, id := refs[slot], ids[slot]
			if p.IsInvalid() != id.IsInvalid() {
				t.Fatalf("invalid mismatch: ref %s, interned %s", p, tab.String(id))
			}
			if p.Len() != tab.Len(id) {
				t.Fatalf("Len mismatch: ref %s, interned %s", p, tab.String(id))
			}
			if !tab.Path(id).Equal(p) {
				t.Fatalf("materialise mismatch: ref %s, interned %s", p, tab.String(id))
			}
			if tab.Intern(p) != id {
				t.Fatalf("re-intern of %s gave a different id", p)
			}
			for k := 0; k < draws; k++ {
				if v := node(k); p.Contains(v) != tab.Contains(id, v) {
					t.Fatalf("Contains(%d) mismatch on %s", v, p)
				}
			}
		}

		for k := 0; k+1 < len(data); k += 2 {
			op, arg := data[k], data[k+1]
			slot := int(op/5) % len(refs)
			i := node(int(arg >> 4))
			j := node(int(arg & 15))
			switch op % 5 {
			case 0, 1: // extend slot by (i, j); 0 also cross-checks CanExtend
				if op%5 == 0 {
					if refs[slot].CanExtend(i, j) != tab.CanExtend(ids[slot], i, j) {
						t.Fatalf("CanExtend(%d,%d) mismatch on %s", i, j, refs[slot])
					}
				}
				refs[slot] = refs[slot].Extend(i, j)
				ids[slot] = tab.Extend(ids[slot], i, j)
			case 2: // reset slot to a FromNodes construction
				ns := make([]int, 0, 4)
				for v := 0; v < int(arg)%5; v++ {
					ns = append(ns, node((int(arg>>4)+v)%draws))
				}
				refs[slot] = FromNodes(ns...)
				ids[slot] = tab.Intern(refs[slot])
			case 3: // compare two slots
				other := int(arg) % len(refs)
				if got, want := tab.Compare(ids[slot], ids[other]), refs[slot].Compare(refs[other]); got != want {
					t.Fatalf("Compare(%s, %s) = %d, want %d", refs[slot], refs[other], got, want)
				}
				if (ids[slot] == ids[other]) != refs[slot].Equal(refs[other]) {
					t.Fatalf("id equality vs Equal mismatch (%s, %s)", refs[slot], refs[other])
				}
			case 4: // extend a batch of slots by (i, j), twice
				// mask 0 batches every slot with sel == nil; any other
				// mask selects exactly its slots.
				mask := int(op/5) % 16
				var sel []int32
				for x := range ids {
					if mask>>x&1 != 0 {
						sel = append(sel, int32(x))
					}
				}
				const untouched PathID = -7
				var first, again [4]PathID
				for x := range ids {
					first[x], again[x] = untouched, untouched
				}
				tab.ExtendSel(ids[:], first[:], sel, i, j)
				tab.ExtendSel(ids[:], again[:], sel, i, j)
				for x := range ids {
					if mask != 0 && mask>>x&1 == 0 {
						if first[x] != untouched || again[x] != untouched {
							t.Fatalf("ExtendSel wrote unselected column %d (mask %b)", x, mask)
						}
						continue
					}
					want := refs[x].Extend(i, j)
					if first[x] != again[x] {
						t.Fatalf("ExtendSel(%s, %d, %d) = %s, then %s", refs[x], i, j, tab.String(first[x]), tab.String(again[x]))
					}
					if got := tab.Extend(ids[x], i, j); got != first[x] {
						t.Fatalf("ExtendSel(%s, %d, %d) = %s, Extend = %s", refs[x], i, j, tab.String(first[x]), tab.String(got))
					}
					if first[x].IsInvalid() != want.IsInvalid() || !tab.Path(first[x]).Equal(want) {
						t.Fatalf("ExtendSel(%s, %d, %d) = %s, want %s", refs[x], i, j, tab.String(first[x]), want)
					}
					refs[x], ids[x] = want, first[x]
				}
				for x := range ids {
					check(x)
				}
			}
			check(slot)
		}
	})
}
