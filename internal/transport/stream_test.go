package transport

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestStreamRoundTrip(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		for {
			b, err := c.Recv()
			if err != nil {
				done <- nil // client closed
				return
			}
			if err := c.Send(b); err != nil {
				done <- err
				return
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := Dial(ctx, l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range [][]byte{
		[]byte("hello"),
		{},
		bytes.Repeat([]byte{0xab}, MaxFrame), // exactly the cap
	} {
		if err := c.Send(payload); err != nil {
			t.Fatal(err)
		}
		got, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("echoed %d bytes, sent %d", len(got), len(payload))
		}
	}
	if err := c.Send(bytes.Repeat([]byte{1}, MaxFrame+1)); err == nil {
		t.Fatal("over-cap send succeeded")
	}
	c.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestRecvRejectsOverCapLength(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Hostile length prefixes — 4 GiB, 256 MiB and MaxFrame+1: the server
	// must reject each without allocating the claimed size.
	for _, prefix := range [][]byte{
		{0xFF, 0xFF, 0xFF, 0xFF},
		{0x10, 0x00, 0x00, 0x00},
		{0x00, 0x10, 0x00, 0x01},
	} {
		errc := make(chan error, 1)
		go func() {
			c, err := l.Accept()
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			_, err = c.Recv()
			errc <- err
		}()
		raw, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := raw.Write(prefix); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("over-cap length prefix % x: got %v, want the over-cap error", prefix, err)
		}
		raw.Close()
	}
}

// TestDialRetryConvergesOnLateListener models the drain/restart window:
// the client starts dialling before anything is listening, the listener
// appears ~80ms later, and DialRetry connects instead of failing fast or
// giving up.
func TestDialRetryConvergesOnLateListener(t *testing.T) {
	// Reserve an address, then close it so dials are refused.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	lch := make(chan *Listener, 1)
	go func() {
		time.Sleep(80 * time.Millisecond)
		l, err := Listen(addr)
		if err != nil {
			lch <- nil
			return
		}
		lch <- l
		if c, err := l.Accept(); err == nil {
			c.Close()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := DialRetry(ctx, addr)
	if err != nil {
		t.Fatalf("DialRetry never connected: %v", err)
	}
	c.Close()
	if l := <-lch; l != nil {
		l.Close()
	} else {
		t.Fatal("late listener failed to bind the probed address")
	}
}

func TestDialRetryHonoursContext(t *testing.T) {
	// Nothing listens here and nothing will.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := DialRetry(ctx, addr); err == nil {
		t.Fatal("DialRetry connected to nothing")
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context deadline in the error chain, got: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("DialRetry took %v to honour a 100ms context", elapsed)
	}
}

// flakyListener fails its first n accepts with a transient error — the
// EMFILE shape — then delegates.
type flakyListener struct {
	net.Listener
	remaining atomic.Int64
	fails     atomic.Int64
}

type tempErr struct{}

func (tempErr) Error() string   { return "accept: too many open files" }
func (tempErr) Timeout() bool   { return false }
func (tempErr) Temporary() bool { return true }

func (f *flakyListener) Accept() (net.Conn, error) {
	if f.remaining.Add(-1) >= 0 {
		f.fails.Add(1)
		return nil, tempErr{}
	}
	return f.Listener.Accept()
}

// TestAcceptBackoffSurvivesTransientErrors pins the accept-loop
// robustness contract: a burst of transient accept failures delays the
// accept loop, it neither returns an error nor spins, and the next
// healthy connection is accepted.
func TestAcceptBackoffSurvivesTransientErrors(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: inner}
	fl.remaining.Store(5)
	l := NewListener(fl)
	defer l.Close()

	accepted := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			c.Close()
		}
		accepted <- err
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := DialRetry(ctx, inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := <-accepted; err != nil {
		t.Fatalf("accept failed despite transient-only errors: %v", err)
	}
	if got := fl.fails.Load(); got != 5 {
		t.Fatalf("flaky listener failed %d accepts, want 5", got)
	}
}

// TestBackoffShape pins the delay sequence: doubling from 1ms, capped.
func TestBackoffShape(t *testing.T) {
	var d time.Duration
	want := []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		8 * time.Millisecond, 16 * time.Millisecond, 32 * time.Millisecond,
		64 * time.Millisecond, acceptDelayCap, acceptDelayCap,
	}
	for i, w := range want {
		d = nextAcceptDelay(d)
		if d != w {
			t.Fatalf("step %d: delay %v, want %v", i, d, w)
		}
	}
}
