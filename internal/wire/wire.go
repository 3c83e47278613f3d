// Package wire defines the advertisement message exchanged by the live
// protocol engine, binary codecs for the three route types a live network
// or a checkpoint carries (ℕ∞ hop counts, SPP gadget routes and Section 7
// policy routes), and the simulation service's frames. Frames are
// length-prefixed and self-describing enough to cross a TCP connection;
// the format is deliberately simple (this is a clean-slate protocol, not
// RFC 4271 BGP).
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/algebras"
	"repro/internal/gadgets"
	"repro/internal/paths"
	"repro/internal/policy"
)

// Codec serialises routes of type R. AppendEncode appends r's encoding
// to dst, so a loop over many routes can reuse one buffer;
// AppendEncode(nil, r) is a fresh slice. Decode parses exactly one
// encoding.
type Codec[R any] interface {
	AppendEncode(dst []byte, r R) ([]byte, error)
	Decode(b []byte) (R, error)
}

// Advert is one full-table advertisement: the sender's current route to
// every destination, already encoded.
type Advert struct {
	From int
	Seq  uint64
	Rows [][]byte
}

// ErrTruncated reports a frame shorter than its own length fields claim.
var ErrTruncated = errors.New("wire: truncated frame")

// EncodeAdvert renders an advert as a single frame:
//
//	u32 from | u64 seq | u32 nrows | nrows × (u32 len | bytes)
func EncodeAdvert(a Advert) []byte {
	size := 4 + 8 + 4
	for _, r := range a.Rows {
		size += 4 + len(r)
	}
	out := make([]byte, 0, size)
	out = binary.BigEndian.AppendUint32(out, uint32(a.From))
	out = binary.BigEndian.AppendUint64(out, a.Seq)
	out = binary.BigEndian.AppendUint32(out, uint32(len(a.Rows)))
	for _, r := range a.Rows {
		out = binary.BigEndian.AppendUint32(out, uint32(len(r)))
		out = append(out, r...)
	}
	return out
}

// DecodeAdvert parses a frame produced by EncodeAdvert.
func DecodeAdvert(b []byte) (Advert, error) {
	cur := NewCursor(b, ErrTruncated)
	a := Advert{From: int(cur.U32()), Seq: cur.U64()}
	n := cur.U32()
	if cur.Err() != nil {
		return a, cur.Err()
	}
	// Every row carries a 4-byte length, so a count the frame cannot hold
	// is refused before it sizes an allocation.
	if uint64(n)*4 > uint64(cur.Len()) {
		return a, ErrTruncated
	}
	a.Rows = make([][]byte, 0, n)
	for i := uint32(0); i < n; i++ {
		row := cur.Bytes(cur.Len()) // no cap of its own: a row is bounded by its frame
		if cur.Err() != nil {
			return a, cur.Err()
		}
		a.Rows = append(a.Rows, bytes.Clone(row))
	}
	return a, nil
}

// NatInfCodec serialises ℕ∞ routes as big-endian u64 with all-ones for ∞.
type NatInfCodec struct{}

// AppendEncode implements Codec.
func (NatInfCodec) AppendEncode(dst []byte, r algebras.NatInf) ([]byte, error) {
	return binary.BigEndian.AppendUint64(dst, uint64(r)), nil
}

// Decode implements Codec.
func (NatInfCodec) Decode(b []byte) (algebras.NatInf, error) {
	if len(b) != 8 {
		return 0, ErrTruncated
	}
	return algebras.NatInf(binary.BigEndian.Uint64(b)), nil
}

// appendPath appends a simple path: 0xFF for ⊥, else u16 arc count and
// u16 node pairs.
func appendPath(dst []byte, p paths.Path) []byte {
	if p.IsInvalid() {
		return append(dst, 0xFF)
	}
	arcs := p.Arcs()
	dst = append(dst, 0x00)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(arcs)))
	for _, a := range arcs {
		dst = binary.BigEndian.AppendUint16(dst, uint16(a.From))
		dst = binary.BigEndian.AppendUint16(dst, uint16(a.To))
	}
	return dst
}

// readPath reads one appendPath layout through cur, returning cur's fault
// if the bytes run out.
func readPath(cur *Cursor) (paths.Path, error) {
	if cur.U8() == 0xFF {
		return paths.Invalid, nil
	}
	n := int(cur.U16())
	raw := cur.take(4 * n)
	if err := cur.Err(); err != nil {
		return paths.Invalid, err
	}
	arcs := make([]paths.Arc, n)
	for i := range arcs {
		arcs[i] = paths.Arc{
			From: int(binary.BigEndian.Uint16(raw[4*i:])),
			To:   int(binary.BigEndian.Uint16(raw[4*i+2:])),
		}
	}
	p := paths.FromArcs(arcs...)
	if p.IsInvalid() && n > 0 {
		return paths.Invalid, fmt.Errorf("wire: arc sequence does not form a simple path")
	}
	return p, nil
}

// PolicyCodec serialises Section 7 routes.
type PolicyCodec struct{}

// AppendEncode implements Codec: flag byte, lpref u32, communities u64,
// pad byte, path.
func (PolicyCodec) AppendEncode(dst []byte, r policy.Route) ([]byte, error) {
	if r.IsInvalid() {
		return append(dst, 0xFF), nil
	}
	dst = append(dst, 0x00)
	dst = binary.BigEndian.AppendUint32(dst, r.LPref)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Comms))
	dst = append(dst, r.Pad)
	return appendPath(dst, r.Path), nil
}

// Decode implements Codec.
func (PolicyCodec) Decode(b []byte) (policy.Route, error) {
	cur := NewCursor(b, ErrTruncated)
	if cur.U8() == 0xFF {
		return policy.InvalidRoute, nil
	}
	lpref := cur.U32()
	comms := policy.CommunitySet(cur.U64())
	pad := cur.U8()
	p, err := readPath(cur)
	if err != nil {
		return policy.InvalidRoute, err
	}
	if cur.Len() != 0 {
		return policy.InvalidRoute, fmt.Errorf("wire: %d trailing bytes after policy route", cur.Len())
	}
	out := policy.Valid(lpref, comms, p)
	out.Pad = pad
	return out, nil
}

// SPPCodec serialises the stable-paths-problem routes of the gadget
// instances: rank u32 then path.
type SPPCodec struct{}

// AppendEncode implements Codec: rank u32, path.
func (SPPCodec) AppendEncode(dst []byte, r gadgets.Route) ([]byte, error) {
	return appendPath(binary.BigEndian.AppendUint32(dst, r.Rank), r.Path), nil
}

// Decode implements Codec.
func (SPPCodec) Decode(b []byte) (gadgets.Route, error) {
	cur := NewCursor(b, ErrTruncated)
	rank := cur.U32()
	p, err := readPath(cur)
	if err != nil {
		return gadgets.Route{}, err
	}
	if cur.Len() != 0 {
		return gadgets.Route{}, fmt.Errorf("wire: %d trailing bytes after SPP route", cur.Len())
	}
	return gadgets.Route{Rank: rank, Path: p}, nil
}
