package engine

import (
	"repro/internal/core"
	"repro/internal/matrix"
)

// Pointwise exposes the adapter that serves Batched from a plain Source,
// so the external tests can hold it to the same laws as the lazy sources.
func Pointwise(src Source) Batched { return &pointwise{src} }

// NewSharded is New with the column-shard threshold (shardFromN) lowered
// to 1, so a test's tiny network splits every row across the workers the
// way a large one does.
func NewSharded[R any](alg core.Algebra[R], adj *matrix.Adjacency[R], cfg Config) *Engine[R] {
	e := New(alg, adj, cfg)
	e.shardFrom = 1
	return e
}
