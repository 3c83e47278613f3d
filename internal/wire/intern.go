package wire

import (
	"encoding/binary"

	"repro/internal/algebras"
	"repro/internal/pathalg"
	"repro/internal/policy"
)

// PairCodec serialises lexicographic-product routes given codecs for the
// two components.
type PairCodec[A, B any] struct {
	First  Codec[A]
	Second Codec[B]
}

// Encode implements Codec: u32 first length, first, then second.
func (c PairCodec[A, B]) Encode(r algebras.Pair[A, B]) ([]byte, error) {
	first, err := c.First.Encode(r.First)
	if err != nil {
		return nil, err
	}
	second, err := c.Second.Encode(r.Second)
	if err != nil {
		return nil, err
	}
	out := binary.BigEndian.AppendUint32(nil, uint32(len(first)))
	out = append(out, first...)
	return append(out, second...), nil
}

// Decode implements Codec.
func (c PairCodec[A, B]) Decode(b []byte) (algebras.Pair[A, B], error) {
	var out algebras.Pair[A, B]
	cur := NewCursor(b, ErrTruncated)
	raw := cur.Bytes(cur.Len())
	if err := cur.Err(); err != nil {
		return out, err
	}
	first, err := c.First.Decode(raw)
	if err != nil {
		return out, err
	}
	second, err := c.Second.Decode(cur.rest())
	if err != nil {
		return out, err
	}
	return algebras.Pair[A, B]{First: first, Second: second}, nil
}

// The interned-carrier codecs bridge hash-consed routes onto the wire by
// round-tripping through the reference representation: Encode
// materialises the interned path id into the actual path, Decode
// re-interns it into the receiver's table. An interned id is only
// meaningful against the table that issued it, so this is exactly the
// paths.Table remap that lets snapshots and adverts cross process
// boundaries — the decoded route carries whatever id the local table
// assigns, and every algebra operation behaves identically because the
// interning is semantics-free by construction.

// InternedPolicyCodec serialises policy.IRoute against an interned
// policy algebra's own table.
type InternedPolicyCodec struct {
	Alg *policy.Interned
}

// Encode implements Codec.
func (c InternedPolicyCodec) Encode(r policy.IRoute) ([]byte, error) {
	return PolicyCodec{}.Encode(c.Alg.ToRoute(r))
}

// Decode implements Codec.
func (c InternedPolicyCodec) Decode(b []byte) (policy.IRoute, error) {
	r, err := PolicyCodec{}.Decode(b)
	if err != nil {
		return policy.InvalidIRoute, err
	}
	return c.Alg.FromRoute(r), nil
}

// InternedPathCodec serialises pathalg.IRoute[B] against an interned
// path-tracking algebra's own table, given a codec for the base route.
type InternedPathCodec[B comparable] struct {
	Alg  *pathalg.Interned[B]
	Base Codec[B]
}

// Encode implements Codec.
func (c InternedPathCodec[B]) Encode(r pathalg.IRoute[B]) ([]byte, error) {
	return TrackedCodec[B]{Base: c.Base}.Encode(c.Alg.ToTracked(r))
}

// Decode implements Codec.
func (c InternedPathCodec[B]) Decode(b []byte) (pathalg.IRoute[B], error) {
	r, err := TrackedCodec[B]{Base: c.Base}.Decode(b)
	if err != nil {
		var zero pathalg.IRoute[B]
		return zero, err
	}
	return c.Alg.FromTracked(r), nil
}
