package server

import (
	"context"
	"fmt"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// Client is one tenant's connection to a dbfsimd daemon. It is safe
// for one goroutine; concurrent submitters open one Client each (the
// daemon multiplexes). A Client survives load shedding by construction
// — Submit surfaces retriable errors with their retry-after hints and
// RunRetry loops on them — and survives a daemon restart by re-dialling
// with backoff and re-Waiting, which is exactly the restart contract:
// the result of a replayed run is bit-identical, so asking again is
// always safe.
type Client struct {
	addr   string
	tenant string
	conn   *transport.Conn
}

// DialClient connects to a daemon with dial-retry backoff, so a client
// racing the daemon's startup converges.
func DialClient(ctx context.Context, addr, tenant string) (*Client, error) {
	if !nameOK(tenant) {
		return nil, fmt.Errorf("client: bad tenant name %q", tenant)
	}
	conn, err := transport.DialRetry(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &Client{addr: addr, tenant: tenant, conn: conn}, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }

// redial replaces a dead connection (daemon restarted mid-wait).
func (c *Client) redial(ctx context.Context) error {
	c.conn.Close()
	conn, err := transport.DialRetry(ctx, c.addr)
	if err != nil {
		return err
	}
	c.conn = conn
	return nil
}

// send encodes and writes one frame.
func (c *Client) send(f wire.Frame) error {
	b, err := wire.EncodeFrame(f)
	if err != nil {
		return err
	}
	return c.conn.Send(b)
}

// recv reads and decodes one frame under ctx (via a read deadline).
func (c *Client) recv(ctx context.Context) (wire.Frame, error) {
	if dl, ok := ctx.Deadline(); ok {
		c.conn.SetReadDeadline(dl)
	}
	b, err := c.conn.Recv()
	if err != nil {
		return nil, err
	}
	return wire.DecodeFrame(b)
}

// Submit submits a scenario run and returns its admission Status, or
// the server's ErrorFrame as the error (check Code.Retriable() and
// RetryAfterMS on a *wire.ErrorFrame to distinguish shed load from
// rejection).
func (c *Client) Submit(ctx context.Context, id string, scenarioText []byte, deadline time.Duration) (wire.Status, error) {
	sub := wire.Submit{Tenant: c.tenant, ID: id, Scenario: scenarioText}
	if deadline > 0 {
		sub.DeadlineMS = deadline.Milliseconds()
	}
	if err := c.send(sub); err != nil {
		return wire.Status{}, err
	}
	f, err := c.recv(ctx)
	if err != nil {
		return wire.Status{}, err
	}
	switch f := f.(type) {
	case wire.Status:
		return f, nil
	case wire.ErrorFrame:
		return wire.Status{}, &f
	default:
		return wire.Status{}, fmt.Errorf("client: unexpected %T reply to submit", f)
	}
}

// Await blocks until the run completes, reading the streamed Status
// frames (the most recent is returned alongside the result) and
// re-Waiting across connection loss — including a full daemon
// restart, in which case the replayed run's result is bit-identical to
// the undisturbed one. Returns the server's
// ErrorFrame as the error for a failed run.
func (c *Client) Await(ctx context.Context, id string) (wire.Result, wire.Status, error) {
	var last wire.Status
	for {
		f, err := c.recv(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return wire.Result{}, last, ctx.Err()
			}
			// Connection lost: the daemon restarted or shed this conn.
			// Re-dial (with backoff, riding out the restart window) and
			// re-subscribe; the server's result table makes this safe.
			if err := c.redial(ctx); err != nil {
				return wire.Result{}, last, err
			}
			if err := c.send(wire.Wait{Tenant: c.tenant, ID: id}); err != nil {
				return wire.Result{}, last, err
			}
			continue
		}
		switch f := f.(type) {
		case wire.Status:
			if f.ID == id {
				last = f
			}
		case wire.Result:
			if f.ID == id {
				return f, last, nil
			}
		case wire.ErrorFrame:
			if f.ID != id && f.ID != "" {
				continue
			}
			if f.Code == wire.CodeUnknownRun {
				// Race: we re-dialled before the recovering daemon
				// re-admitted its spool, or the daemon is still down.
				// Back off and ask again.
				select {
				case <-ctx.Done():
					return wire.Result{}, last, ctx.Err()
				case <-time.After(50 * time.Millisecond):
				}
				if err := c.send(wire.Wait{Tenant: c.tenant, ID: id}); err != nil {
					if err := c.redial(ctx); err != nil {
						return wire.Result{}, last, err
					}
					err = c.send(wire.Wait{Tenant: c.tenant, ID: id})
					if err != nil {
						return wire.Result{}, last, err
					}
				}
				continue
			}
			return wire.Result{}, last, &f
		}
	}
}

// Run submits and awaits in one call.
func (c *Client) Run(ctx context.Context, id string, scenarioText []byte, deadline time.Duration) (wire.Result, error) {
	if _, err := c.Submit(ctx, id, scenarioText, deadline); err != nil {
		return wire.Result{}, err
	}
	res, _, err := c.Await(ctx, id)
	return res, err
}

// RunRetry is Run with overload riding: shed submissions (retriable
// error codes) are retried after the server's RetryAfterMS hint until
// admission or ctx expiry — the well-behaved client of an overloaded
// daemon.
func (c *Client) RunRetry(ctx context.Context, id string, scenarioText []byte, deadline time.Duration) (wire.Result, int, error) {
	sheds := 0
	for {
		_, err := c.Submit(ctx, id, scenarioText, deadline)
		if err == nil {
			break
		}
		ef, ok := err.(*wire.ErrorFrame)
		if !ok || !ef.Code.Retriable() {
			return wire.Result{}, sheds, err
		}
		sheds++
		backoff := time.Duration(ef.RetryAfterMS) * time.Millisecond
		if backoff <= 0 {
			backoff = 50 * time.Millisecond
		}
		select {
		case <-ctx.Done():
			return wire.Result{}, sheds, ctx.Err()
		case <-time.After(backoff):
		}
		if ef.Code == wire.CodeDraining {
			// The daemon is restarting: reconnect through the window.
			if err := c.redial(ctx); err != nil {
				return wire.Result{}, sheds, err
			}
		}
	}
	res, _, err := c.Await(ctx, id)
	return res, sheds, err
}
