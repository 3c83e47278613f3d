package matrix

import (
	"math/rand"
	"testing"
)

func TestBitsetBasics(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130, 512} {
		b := NewBitset(n)
		if !b.Empty() || b.Count() != 0 {
			t.Fatalf("n=%d: new bitset not empty", n)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		want := map[int]bool{}
		for k := 0; k < n/2+1; k++ {
			j := rng.Intn(n)
			want[j] = true
			b.Set(j)
		}
		if b.Count() != len(want) {
			t.Fatalf("n=%d: count %d, want %d", n, b.Count(), len(want))
		}
		got := map[int]bool{}
		prev := -1
		b.ForEachWord(func(wi int, w uint64) {
			if wi <= prev || w == 0 {
				t.Fatalf("n=%d: ForEachWord gave word %d (%#x) after %d", n, wi, w, prev)
			}
			prev = wi
			for x := range 64 {
				if w&(1<<x) != 0 {
					got[wi<<6+x] = true
				}
			}
		})
		for j := 0; j < n; j++ {
			if b.Get(j) != want[j] || got[j] != want[j] {
				t.Fatalf("n=%d: bit %d mismatch", n, j)
			}
		}
		b.Clear()
		if !b.Empty() {
			t.Fatalf("n=%d: clear left bits behind", n)
		}
	}
}
