package engine

// Pointwise exposes the adapter that serves Batched from a plain Source,
// so the external tests can hold it to the same laws as the lazy sources.
func Pointwise(src Source) Batched { return &pointwise{src} }
