package wire

import "encoding/binary"

// Cursor is a bounds-checked big-endian reader over untrusted bytes. The
// first read that would run past the data, or whose length prefix exceeds
// the caller's cap, sticks the cursor's fault in Err; every later read is
// a no-op returning zero, so a decoder reads a whole layout and checks
// Err once. Lengths are checked against the cap and the remaining data
// before anything is allocated.
type Cursor struct {
	b     []byte
	fault error
	err   error
}

// NewCursor reads b; fault is the error a failed read sticks.
func NewCursor(b []byte, fault error) *Cursor { return &Cursor{b: b, fault: fault} }

// Err is the sticky fault, nil while every read so far succeeded.
func (c *Cursor) Err() error { return c.err }

// Len is the number of unread bytes.
func (c *Cursor) Len() int { return len(c.b) }

// take consumes n bytes, or fails and returns nil.
func (c *Cursor) take(n int) []byte {
	if c.err != nil || n < 0 || n > len(c.b) {
		c.err = c.fault
		return nil
	}
	v := c.b[:n]
	c.b = c.b[n:]
	return v
}

// U8, U16, U32, U64 and I64 each read one fixed-width integer.
func (c *Cursor) U8() byte {
	if v := c.take(1); v != nil {
		return v[0]
	}
	return 0
}

func (c *Cursor) U16() uint16 {
	if v := c.take(2); v != nil {
		return binary.BigEndian.Uint16(v)
	}
	return 0
}

func (c *Cursor) U32() uint32 {
	if v := c.take(4); v != nil {
		return binary.BigEndian.Uint32(v)
	}
	return 0
}

func (c *Cursor) U64() uint64 {
	if v := c.take(8); v != nil {
		return binary.BigEndian.Uint64(v)
	}
	return 0
}

func (c *Cursor) I64() int64 { return int64(c.U64()) }

// capped consumes an l-byte field, failing when l exceeds max.
func (c *Cursor) capped(l, max int) []byte {
	if l > max {
		c.err = c.fault
		return nil
	}
	return c.take(l)
}

// Str reads a u16-length-prefixed string of at most max bytes.
func (c *Cursor) Str(max int) string { return string(c.capped(int(c.U16()), max)) }

// Bytes reads a u32-length-prefixed blob of at most max bytes. The result
// aliases the cursor's data.
func (c *Cursor) Bytes(max int) []byte { return c.capped(int(c.U32()), max) }
