package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Stream connections: the client/server side of the transport package.
// Where Memory moves datagram-like advertisements between simulated
// routers, a Conn is one framed byte stream between a service client
// and the dbfsimd daemon — length-prefixed frames over TCP, capped at
// MaxFrame, plus the two robustness behaviours a long-lived daemon needs
// from its socket layer:
//
//   - Dialling retries with capped exponential backoff under a context,
//     so a client racing the daemon's startup (or its drain/restart
//     window) converges instead of failing or spinning.
//   - Accepting backs off on transient errors (EMFILE under overload is
//     the classic), so the accept loop neither busy-spins nor dies.

// MaxFrame caps a frame's payload size in both directions. The largest
// service frame carries a 64 KiB scenario or table, so anything above
// this is a corrupt or hostile length prefix; the reader rejects it
// before allocating a byte.
const MaxFrame = 1 << 20

// acceptDelayCap bounds the accept-error backoff.
const acceptDelayCap = 100 * time.Millisecond

// nextAcceptDelay advances the accept-error backoff: 1ms, doubling to
// the cap. A successful accept resets the caller's delay to zero.
func nextAcceptDelay(d time.Duration) time.Duration {
	if d == 0 {
		return time.Millisecond
	}
	if d >= acceptDelayCap/2 {
		return acceptDelayCap
	}
	return 2 * d
}

// Conn is one framed stream connection: u32 big-endian length prefix,
// then the frame bytes, capped at MaxFrame in both directions. Send and
// Recv are each safe for concurrent use; writes are serialised so
// concurrent senders interleave whole frames, never bytes.
type Conn struct {
	c   net.Conn
	wmu sync.Mutex
	rmu sync.Mutex
}

// NewConn wraps an established net.Conn in the framing layer.
func NewConn(c net.Conn) *Conn { return &Conn{c: c} }

// Send writes one frame.
func (c *Conn) Send(payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("transport: %d-byte frame exceeds %d", len(payload), MaxFrame)
	}
	frame := make([]byte, 4, 4+len(payload))
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err := c.c.Write(frame)
	if err == nil {
		mFramesSent.Inc()
		mBytesSent.Add(float64(len(frame)))
	}
	return err
}

// Recv reads one frame, rejecting an over-cap length prefix before
// allocating anything — a desynchronised or hostile stream costs an
// error, not memory.
func (c *Conn) Recv() ([]byte, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	var hdr [4]byte
	if _, err := io.ReadFull(c.c, hdr[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size > MaxFrame {
		return nil, fmt.Errorf("transport: claimed frame size %d exceeds %d", size, MaxFrame)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(c.c, payload); err != nil {
		return nil, err
	}
	mFramesRecv.Inc()
	mBytesRecv.Add(float64(4 + len(payload)))
	return payload, nil
}

// SetReadDeadline bounds the next Recv.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.c.SetReadDeadline(t) }

// SetWriteDeadline bounds subsequent Sends — the flush-then-close path
// uses it so a stuck peer cannot hold a closing connection open.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.c.SetWriteDeadline(t) }

// Close closes the underlying connection; a blocked Recv returns.
func (c *Conn) Close() error { return c.c.Close() }

// Listener accepts framed stream connections with accept-error backoff.
type Listener struct {
	ln net.Listener
}

// Listen opens a stream listener on addr (e.g. "127.0.0.1:0").
func Listen(addr string) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewListener(ln), nil
}

// NewListener wraps an existing net.Listener (tests inject flaky ones).
func NewListener(ln net.Listener) *Listener { return &Listener{ln: ln} }

// Addr returns the bound address.
func (l *Listener) Addr() net.Addr { return l.ln.Addr() }

// Accept returns the next connection. Transient accept errors (EMFILE
// under overload, an aborted handshake) are retried with capped backoff
// instead of being surfaced, so one burst can neither kill an accept loop
// nor make it spin; only a closed listener returns an error,
// net.ErrClosed.
func (l *Listener) Accept() (*Conn, error) {
	var delay time.Duration
	for {
		c, err := l.ln.Accept()
		if err == nil {
			return NewConn(c), nil
		}
		if errors.Is(err, net.ErrClosed) {
			return nil, err
		}
		mAcceptBackoffs.Inc()
		delay = nextAcceptDelay(delay)
		time.Sleep(delay)
	}
}

// Close closes the listener; a blocked Accept returns net.ErrClosed.
func (l *Listener) Close() error { return l.ln.Close() }

// Dial opens one framed stream connection under ctx.
func Dial(ctx context.Context, addr string) (*Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(c), nil
}

// dialDelayCap bounds the dial-retry backoff.
const dialDelayCap = 250 * time.Millisecond

// DialRetry dials with capped exponential backoff (5ms doubling to
// 250ms) until it connects or ctx is done — the client side of a
// daemon's drain/restart window, where connection-refused is a phase,
// not a verdict.
func DialRetry(ctx context.Context, addr string) (*Conn, error) {
	delay := 5 * time.Millisecond
	for {
		c, err := Dial(ctx, addr)
		if err == nil {
			return c, nil
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("transport: dialling %s: %w (last error: %v)", addr, ctx.Err(), err)
		}
		mDialRetries.Inc()
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, fmt.Errorf("transport: dialling %s: %w (last error: %v)", addr, ctx.Err(), err)
		case <-t.C:
		}
		if delay < dialDelayCap {
			delay *= 2
			if delay > dialDelayCap {
				delay = dialDelayCap
			}
		}
	}
}
