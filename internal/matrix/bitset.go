package matrix

import "math/bits"

// Bitset is a fixed-width set of destination columns, the unit of the
// engine's dirty tracking: one bit per destination j records whether a
// node's route to j changed when the node last recomputed its row.
type Bitset struct {
	n     int
	words []uint64
}

// NewBitset allocates an empty set over columns [0, n).
func NewBitset(n int) *Bitset {
	return &Bitset{n: n, words: make([]uint64, (n+63)/64)}
}

// NewBitsets allocates count empty sets over columns [0, n) backed by a
// single word slab — two allocations total, however many sets. The
// engine's per-node changed-destination sets come from here.
func NewBitsets(count, n int) []Bitset {
	wpr := (n + 63) / 64
	slab := make([]uint64, count*wpr)
	sets := make([]Bitset, count)
	for i := range sets {
		sets[i] = Bitset{n: n, words: slab[i*wpr : (i+1)*wpr : (i+1)*wpr]}
	}
	return sets
}

// Set adds column j to the set.
func (b *Bitset) Set(j int) { b.words[j>>6] |= 1 << (j & 63) }

// Get reports whether column j is in the set.
func (b *Bitset) Get(j int) bool { return b.words[j>>6]&(1<<(j&63)) != 0 }

// Clear empties the set.
func (b *Bitset) Clear() {
	for w := range b.words {
		b.words[w] = 0
	}
}

// Empty reports whether no column is set.
func (b *Bitset) Empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of set columns.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// OrWord ORs mask into word w (columns [64w, 64w+64)): how the row
// kernels flush a row's changed bits. A row is one task, so each row's
// change set has exactly one writer.
func (b *Bitset) OrWord(w int, mask uint64) { b.words[w] |= mask }

// ForEachWord calls fn for every non-zero word (wi covers columns
// [64wi, 64wi+64)) in ascending order — the bulk form consumers use to
// maintain word-granular summaries alongside their per-column walk.
func (b *Bitset) ForEachWord(fn func(wi int, w uint64)) {
	for wi, w := range b.words {
		if w != 0 {
			fn(wi, w)
		}
	}
}
