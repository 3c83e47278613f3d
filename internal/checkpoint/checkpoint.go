// Package checkpoint persists engine snapshots as versioned,
// CRC-checksummed files, so a long δ run can be preempted, survive a
// crash, or move between processes and resume bit-identically
// (engine.Snapshot / engine.Restore carry the equivalence proof; this
// package only has to round-trip the state faithfully).
//
// Routes cross the boundary through the same internal/wire codecs the
// live protocol uses.
//
// Layout (all integers big-endian):
//
//	"DBFC" | u16 version | family (u16 len + bytes)
//	meta: u16 count, count × (u16 klen + key + u16 vlen + value), keys sorted
//	payload: flags u8 | u32 step | u32 n | u32 window | u32 lastChange
//	         stats (3 × i64) | u32 nstates | states (n·n cells of u32 len + bytes, row-major)
//	         ver n·n × i32 | lastComp n × i32 | lastRead n·n × i32
//	         [certified: n × u8]
//	u32 CRC-32 (IEEE) of everything above
//
// Flag bit 1: the certification set follows. The stats are RowsComputed,
// RowsSkipped and CellsComputed; a resumable snapshot implies the rest
// (Steps = step, ConvergedAt = −1).
//
// Every decode path is bounds-checked against the actual data and hard
// caps; corrupt or hostile input yields a clean error, never a panic or
// an unbounded allocation.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/wire"
)

// Version is the one format Encode writes and Decode reads.
const Version = 2

var magic = []byte("DBFC")

// Hard caps against corrupt length fields; all far above anything the
// repository produces but small enough that a hostile header cannot
// drive allocation.
const (
	maxNodes  = 1 << 14
	maxString = 1 << 12
	maxMeta   = 256
	maxCell   = 1 << 20
)

// ErrChecksum reports a CRC mismatch: the file was truncated or a byte
// was flipped between Encode and Decode.
var ErrChecksum = errors.New("checkpoint: checksum mismatch")

// errTruncated is the fault the body cursor sticks: a length field or a
// fixed-width read ran past the verified data or over its cap.
var errTruncated = errors.New("checkpoint: truncated payload")

// File is one checkpoint: a tagged, annotated engine snapshot. Family
// names the carrier's codec family (e.g. "natinf", "spp") —
// Decode refuses to hand route bytes to the wrong codec. Meta is free
// annotation: scenario.Runner.Checkpoint stores the scenario text there,
// which is what ResumeRunner rebuilds the run from.
type File[R any] struct {
	Family string
	Meta   map[string]string
	Snap   *engine.Snapshot[R]
}

// Encode renders the checkpoint, routes serialised with c.
func Encode[R any](c wire.Codec[R], f *File[R]) ([]byte, error) {
	s := f.Snap
	if s == nil {
		return nil, errors.New("checkpoint: nil snapshot")
	}
	if len(f.Family) > maxString || len(f.Meta) > maxMeta {
		return nil, errors.New("checkpoint: family or meta too large")
	}
	out := append([]byte(nil), magic...)
	out = binary.BigEndian.AppendUint16(out, Version)
	out = appendString(out, f.Family)
	keys := make([]string, 0, len(f.Meta))
	for k := range f.Meta {
		if len(k) > maxString || len(f.Meta[k]) > maxString {
			return nil, fmt.Errorf("checkpoint: meta entry %q too large", k)
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out = binary.BigEndian.AppendUint16(out, uint16(len(keys)))
	for _, k := range keys {
		out = appendString(out, k)
		out = appendString(out, f.Meta[k])
	}

	var flags byte
	if s.Certified != nil {
		flags |= 2
	}
	out = append(out, flags)
	out = binary.BigEndian.AppendUint32(out, uint32(s.Step))
	out = binary.BigEndian.AppendUint32(out, uint32(s.N))
	out = binary.BigEndian.AppendUint32(out, uint32(s.Window))
	out = binary.BigEndian.AppendUint32(out, uint32(s.LastChange))
	for _, v := range []int{s.Stats.RowsComputed, s.Stats.RowsSkipped, s.Stats.CellsComputed} {
		out = binary.BigEndian.AppendUint64(out, uint64(int64(v)))
	}
	out = binary.BigEndian.AppendUint32(out, uint32(len(s.States)))
	for _, st := range s.States {
		for i := 0; i < s.N; i++ {
			for j := 0; j < s.N; j++ {
				b, err := c.Encode(st.Get(i, j))
				if err != nil {
					return nil, fmt.Errorf("checkpoint: encoding cell (%d,%d): %w", i, j, err)
				}
				out = binary.BigEndian.AppendUint32(out, uint32(len(b)))
				out = append(out, b...)
			}
		}
	}
	out = appendInt32s(out, s.Ver)
	out = appendInt32s(out, s.LastComp)
	out = appendInt32s(out, s.LastRead)
	for _, cert := range s.Certified {
		if cert {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out)), nil
}

// Header parses just the family tag and metadata — enough for a caller
// to decide which codec to decode with — after verifying the checksum,
// so a corrupt file is rejected before any of it is believed.
func Header(data []byte) (family string, meta map[string]string, err error) {
	cur, err := verified(data)
	if err != nil {
		return "", nil, err
	}
	return header(cur)
}

// Decode parses a checkpoint encoded with Encode, verifying the checksum
// and the family tag before decoding a single route.
func Decode[R any](c wire.Codec[R], data []byte, wantFamily string) (*File[R], error) {
	cur, err := verified(data)
	if err != nil {
		return nil, err
	}
	family, meta, err := header(cur)
	if err != nil {
		return nil, err
	}
	if family != wantFamily {
		return nil, fmt.Errorf("checkpoint: family %q, want %q", family, wantFamily)
	}
	f := &File[R]{Family: family, Meta: meta, Snap: &engine.Snapshot[R]{}}
	s := f.Snap
	certified := cur.U8()&2 != 0
	s.Step = int(cur.U32())
	s.N = int(cur.U32())
	s.Window = int(cur.U32())
	s.LastChange = int(cur.U32())
	for _, p := range []*int{&s.Stats.RowsComputed, &s.Stats.RowsSkipped, &s.Stats.CellsComputed} {
		*p = int(cur.I64())
	}
	s.Stats.Steps, s.Stats.ConvergedAt = s.Step, -1
	if cur.Err() == nil && (s.N < 1 || s.N > maxNodes) {
		return nil, fmt.Errorf("checkpoint: implausible node count %d", s.N)
	}
	nstates := int(cur.U32())
	if cur.Err() == nil && (nstates < 1 || nstates > s.Step+1) {
		return nil, fmt.Errorf("checkpoint: implausible state count %d for step %d", nstates, s.Step)
	}
	if cur.Err() != nil {
		return nil, cur.Err()
	}
	// Every cell carries a u32 length, so states the file cannot hold are
	// refused before they are allocated.
	if 4*uint64(nstates)*uint64(s.N)*uint64(s.N) > uint64(cur.Len()) {
		return nil, errTruncated
	}
	var zero R
	for b := 0; b < nstates; b++ {
		st := matrix.NewState(s.N, zero)
		for i := 0; i < s.N; i++ {
			for j := 0; j < s.N; j++ {
				cell := cur.Bytes(maxCell)
				if cur.Err() != nil {
					return nil, cur.Err()
				}
				r, err := c.Decode(cell)
				if err != nil {
					return nil, fmt.Errorf("checkpoint: decoding cell (%d,%d) of state %d: %w", i, j, b, err)
				}
				st.Set(i, j, r)
			}
		}
		s.States = append(s.States, st)
	}
	s.Ver = cur.Int32s(s.N * s.N)
	s.LastComp = cur.Int32s(s.N)
	s.LastRead = cur.Int32s(s.N * s.N)
	if certified {
		s.Certified = make([]bool, s.N)
		for i := range s.Certified {
			s.Certified[i] = cur.U8() != 0
		}
	}
	if cur.Err() != nil {
		return nil, cur.Err()
	}
	if cur.Len() != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes", cur.Len())
	}
	return f, nil
}

// verified checks magic, version and CRC, returning a cursor over the
// bytes between the version and the checksum trailer.
func verified(data []byte) (*wire.Cursor, error) {
	if len(data) < len(magic)+2+4 {
		return nil, errors.New("checkpoint: file too short")
	}
	if string(data[:4]) != string(magic) {
		return nil, errors.New("checkpoint: bad magic (not a checkpoint file)")
	}
	body, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, ErrChecksum
	}
	cur := wire.NewCursor(body[4:], errTruncated)
	if v := cur.U16(); cur.Err() == nil && v != Version {
		return nil, fmt.Errorf("checkpoint: format version %d, this build reads %d", v, Version)
	}
	return cur, cur.Err()
}

// header reads the family tag and metadata that follow the version.
func header(c *wire.Cursor) (string, map[string]string, error) {
	family := c.Str(maxString)
	count := int(c.U16())
	if c.Err() == nil && count > maxMeta {
		return "", nil, fmt.Errorf("checkpoint: implausible meta count %d", count)
	}
	var meta map[string]string
	if c.Err() == nil && count > 0 {
		meta = make(map[string]string, count)
		for i := 0; i < count; i++ {
			k := c.Str(maxString)
			meta[k] = c.Str(maxString)
		}
	}
	return family, meta, c.Err()
}

func appendString(out []byte, s string) []byte {
	out = binary.BigEndian.AppendUint16(out, uint16(len(s)))
	return append(out, s...)
}

func appendInt32s(out []byte, v []int32) []byte {
	for _, x := range v {
		out = binary.BigEndian.AppendUint32(out, uint32(x))
	}
	return out
}
