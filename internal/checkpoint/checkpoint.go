// Package checkpoint persists a point of a run as a versioned,
// CRC-checksummed file. Durability is replay: a run's state at step k is
// a pure function of its scenario text and k, so a file holds the text,
// the step, and the state at that step as a witness — not the run's
// evaluation state. The reader replays the text to the step and refuses
// the file when its state differs from the witness, so a file resumed by
// a build whose δ differs fails loudly instead of continuing a different
// run.
//
// Routes cross the boundary through the same internal/wire codecs the
// live protocol uses.
//
// Layout (all integers big-endian):
//
//	"DBFC" | u16 version | family (u16 len + bytes) | text (u16 len + bytes)
//	u32 step | u32 n | witness (n·n cells of u32 len + bytes, row-major)
//	u32 CRC-32 (IEEE) of everything above
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

	"repro/internal/matrix"
	"repro/internal/wire"
)

// Version is the one format Encode writes and Decode reads.
const Version = 3

var magic = []byte("DBFC")

// Hard caps against corrupt length fields; all far above anything the
// repository produces but small enough that a hostile header cannot
// drive allocation.
const (
	maxNodes  = 1 << 14
	maxString = 1 << 12
	maxCell   = 1 << 20
)

// ErrChecksum reports a CRC mismatch: the file was truncated or a byte
// was flipped between Encode and Decode.
var ErrChecksum = errors.New("checkpoint: checksum mismatch")

// errTruncated is the fault the body cursor sticks: a length field or a
// fixed-width read ran past the verified data or over its cap.
var errTruncated = errors.New("checkpoint: truncated payload")

// File is one checkpoint. Family names the carrier's codec family (e.g.
// "natinf", "spp") — Decode refuses to hand route bytes to the wrong
// codec. Text is what the run replays from (scenario.Runner.Checkpoint
// stores the scenario text), Step the last completed step and State the
// witness: the state after Step.
type File[R any] struct {
	Family, Text string
	Step         int
	State        *matrix.State[R]
}

// Encode renders the checkpoint, routes serialised with c.
func Encode[R any](c wire.Codec[R], f *File[R]) ([]byte, error) {
	if f.State == nil {
		return nil, errors.New("checkpoint: nil state")
	}
	if len(f.Family) > maxString || len(f.Text) > maxString {
		return nil, errors.New("checkpoint: family or text too large")
	}
	out := append([]byte(nil), magic...)
	out = binary.BigEndian.AppendUint16(out, Version)
	out = appendString(out, f.Family)
	out = appendString(out, f.Text)
	out = binary.BigEndian.AppendUint32(out, uint32(f.Step))
	n := f.State.N
	out = binary.BigEndian.AppendUint32(out, uint32(n))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b, err := c.Encode(f.State.Get(i, j))
			if err != nil {
				return nil, fmt.Errorf("checkpoint: encoding cell (%d,%d): %w", i, j, err)
			}
			out = binary.BigEndian.AppendUint32(out, uint32(len(b)))
			out = append(out, b...)
		}
	}
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out)), nil
}

// Header parses just the family tag and the text — enough for a caller
// to decide which codec to decode with — after verifying the checksum,
// so a corrupt file is rejected before any of it is believed.
func Header(data []byte) (family, text string, err error) {
	cur, err := verified(data)
	if err != nil {
		return "", "", err
	}
	family, text = cur.Str(maxString), cur.Str(maxString)
	return family, text, cur.Err()
}

// Decode parses a checkpoint encoded with Encode, verifying the checksum
// and the family tag before decoding a single route.
func Decode[R any](c wire.Codec[R], data []byte, wantFamily string) (*File[R], error) {
	cur, err := verified(data)
	if err != nil {
		return nil, err
	}
	f := &File[R]{Family: cur.Str(maxString), Text: cur.Str(maxString)}
	if cur.Err() == nil && f.Family != wantFamily {
		return nil, fmt.Errorf("checkpoint: family %q, want %q", f.Family, wantFamily)
	}
	f.Step = int(cur.U32())
	n := int(cur.U32())
	if cur.Err() != nil {
		return nil, cur.Err()
	}
	if n < 1 || n > maxNodes {
		return nil, fmt.Errorf("checkpoint: implausible node count %d", n)
	}
	// Every cell carries a u32 length, so a state the file cannot hold is
	// refused before it is allocated.
	if 4*uint64(n)*uint64(n) > uint64(cur.Len()) {
		return nil, errTruncated
	}
	var zero R
	f.State = matrix.NewState(n, zero)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cell := cur.Bytes(maxCell)
			if cur.Err() != nil {
				return nil, cur.Err()
			}
			r, err := c.Decode(cell)
			if err != nil {
				return nil, fmt.Errorf("checkpoint: decoding cell (%d,%d): %w", i, j, err)
			}
			f.State.Set(i, j, r)
		}
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

func appendString(out []byte, s string) []byte {
	out = binary.BigEndian.AppendUint16(out, uint16(len(s)))
	return append(out, s...)
}
