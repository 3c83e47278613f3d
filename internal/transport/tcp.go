package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// MaxFrame caps a received frame's claimed payload size. A full-table
// advertisement is a few KB per node even on the largest instances here,
// so anything above this is a corrupt or hostile length prefix; the
// reader rejects it before allocating a byte.
const MaxFrame = 1 << 20

// TCP is a Transport whose nodes are TCP listeners on the loopback
// interface exchanging length-prefixed frames. It exists to run the live
// engine over a real network stack; fault injection belongs to Memory (TCP
// by construction neither loses nor reorders within a connection, though
// the engine tolerates both).
type TCP struct {
	mu         sync.Mutex
	listeners  []net.Listener
	chans      []chan Message
	conns      map[int]net.Conn // cached dialled connections, keyed by destination
	closed     bool
	wg         sync.WaitGroup
	frameErrs  atomic.Int64
	queueDrops atomic.Int64
}

// NewTCP starts one loopback listener per node and returns the transport
// once all accept loops are running.
func NewTCP(n int) (*TCP, error) {
	t := &TCP{
		listeners: make([]net.Listener, n),
		chans:     make([]chan Message, n),
		conns:     make(map[int]net.Conn),
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = t.Close()
			return nil, fmt.Errorf("transport: listening for node %d: %w", i, err)
		}
		t.listeners[i] = ln
		t.chans[i] = make(chan Message, 1024)
		t.wg.Add(1)
		go t.acceptLoop(i, ln)
	}
	return t, nil
}

// Addr returns the loopback address of a node's listener.
func (t *TCP) Addr(node int) net.Addr { return t.listeners[node].Addr() }

func (t *TCP) acceptLoop(node int, ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := acceptBackoff(ln)
		if err != nil {
			return
		}
		t.wg.Add(1)
		go t.readLoop(node, conn)
	}
}

func (t *TCP) readLoop(node int, conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		from := int(binary.BigEndian.Uint32(hdr[0:4]))
		size := binary.BigEndian.Uint32(hdr[4:8])
		if size > MaxFrame || from < 0 || from >= len(t.chans) {
			// Corrupt or hostile header: an implausible length prefix or
			// an out-of-range sender. Reject before allocating anything
			// and drop the connection — a desynchronised stream cannot be
			// re-framed.
			t.frameErrs.Add(1)
			return
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(conn, payload); err != nil {
			return
		}
		t.mu.Lock()
		closed := t.closed
		ch := t.chans[node]
		t.mu.Unlock()
		if closed {
			return
		}
		select {
		case ch <- Message{From: from, To: node, Payload: payload}:
		default:
			// Receiver buffer full: drop, loss is permitted.
			t.queueDrops.Add(1)
			mQueueDrops.Inc()
		}
	}
}

// FrameErrors counts connections dropped for corrupt or hostile frame
// headers.
func (t *TCP) FrameErrors() int64 { return t.frameErrs.Load() }

// Send implements Transport: it dials (or reuses) a connection to the
// destination and writes one frame. A dial or write failure tears down
// the cached connection and is returned to the caller — semantically it
// is still just loss (the model permits it), but a supervisor that wants
// to retry with backoff needs to see it.
func (t *TCP) Send(msg Message) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	key := msg.From*len(t.chans) + msg.To
	conn, ok := t.conns[key]
	if !ok {
		var err error
		conn, err = net.Dial("tcp", t.listeners[msg.To].Addr().String())
		if err != nil {
			t.mu.Unlock()
			return fmt.Errorf("transport: dialling node %d: %w", msg.To, err)
		}
		t.conns[key] = conn
	}
	frame := make([]byte, 8, 8+len(msg.Payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(msg.From))
	binary.BigEndian.PutUint32(frame[4:8], uint32(len(msg.Payload)))
	frame = append(frame, msg.Payload...)
	if _, err := conn.Write(frame); err != nil {
		conn.Close()
		delete(t.conns, key)
		t.mu.Unlock()
		return fmt.Errorf("transport: writing to node %d: %w", msg.To, err)
	}
	t.mu.Unlock()
	return nil
}

// Recv implements Transport.
func (t *TCP) Recv(node int) <-chan Message { return t.chans[node] }

// Close implements Transport.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for _, ln := range t.listeners {
		if ln != nil {
			ln.Close()
		}
	}
	for _, c := range t.conns {
		c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	t.mu.Lock()
	for _, ch := range t.chans {
		close(ch)
	}
	t.mu.Unlock()
	return nil
}
