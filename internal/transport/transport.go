// Package transport moves bytes for the two things in this repository
// that talk: Memory carries encoded advertisements between routers of the
// live engine, in process, with seeded fault injection (loss, duplication,
// reordering via random per-message delay); Conn (stream.go) is the
// length-prefixed TCP stream between a service client and the dbfsimd
// daemon. Draw is the one fault model: Memory and the event simulator
// both decide each message's fate with it.
package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Message is an encoded advertisement in flight from one node to another.
type Message struct {
	From    int
	To      int
	Payload []byte
}

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("transport: closed")

// Faults configures the in-memory transport's misbehaviour.
type Faults struct {
	// LossProb drops a message outright.
	LossProb float64
	// DupProb delivers a message twice.
	DupProb float64
	// MinDelay and MaxDelay bound the artificial delivery latency, both
	// ends included (see Draw). With a wide interval, later messages
	// routinely overtake earlier ones — reordering needs no extra
	// mechanism.
	MinDelay, MaxDelay time.Duration
	// QueueLen bounds each node's receive buffer; 0 means the default
	// (1024). A full buffer drops the message — overload is loss, which
	// the model permits — but the drop is counted, never silent.
	QueueLen int
}

// Draw decides one message's fate from rng: how many copies arrive (0
// when it is lost, 2 when it is duplicated) and each copy's delay. It
// draws in a fixed order: loss (one Float64), then duplication (one
// Float64), then one Int63n per copy for a delay uniform over [minDelay,
// maxDelay], both ends included; a maxDelay below minDelay means
// minDelay. D is virtual ticks (int64) in the simulator and
// time.Duration in Memory.
func Draw[D ~int64](rng *rand.Rand, lossProb, dupProb float64, minDelay, maxDelay D) (copies int, delays [2]D) {
	if rng.Float64() < lossProb {
		return 0, delays
	}
	copies = 1
	if rng.Float64() < dupProb {
		copies = 2
	}
	span := int64(max(maxDelay-minDelay, 0)) + 1
	for c := 0; c < copies; c++ {
		delays[c] = minDelay + D(rng.Int63n(span))
	}
	return copies, delays
}

// NodeStats counts one node's traffic through a Memory transport, keyed
// by destination: messages accepted for delivery to the node, messages
// dropped because its buffer was full, and injected duplicate copies.
type NodeStats struct {
	Sent, Dropped, Duplicated int64
}

// nodeCounters is the atomic backing of NodeStats: delivery goroutines
// record drops concurrently with readers.
type nodeCounters struct {
	sent, dropped, duplicated atomic.Int64
}

// Memory delivers messages between nodes 0..N-1 in process, with fault
// injection. Send is best-effort and non-blocking: the model explicitly
// permits loss, so a full buffer drops rather than blocks. The zero Faults
// value gives loss-free, in-order-ish (but still concurrent) delivery.
type Memory struct {
	mu     sync.Mutex
	rng    *rand.Rand
	faults Faults
	chans  []chan Message
	stats  []nodeCounters
	closed bool
	wg     sync.WaitGroup
}

// NewMemory builds an in-memory transport for n nodes; the seed drives all
// fault randomness.
func NewMemory(n int, seed int64, faults Faults) *Memory {
	qlen := faults.QueueLen
	if qlen <= 0 {
		qlen = 1024
	}
	t := &Memory{
		rng:    rand.New(rand.NewSource(seed)),
		faults: faults,
		chans:  make([]chan Message, n),
		stats:  make([]nodeCounters, n),
	}
	for i := range t.chans {
		t.chans[i] = make(chan Message, qlen)
	}
	return t
}

// Stats is a snapshot of each node's counters; the dist runtime surfaces
// the drops in its Outcome.
func (t *Memory) Stats() []NodeStats {
	out := make([]NodeStats, len(t.stats))
	for i := range t.stats {
		out[i] = NodeStats{
			Sent:       t.stats[i].sent.Load(),
			Dropped:    t.stats[i].dropped.Load(),
			Duplicated: t.stats[i].duplicated.Load(),
		}
	}
	return out
}

// Send accepts msg for delivery, applying loss, duplication and random
// delay. It fails only after Close or for a destination outside 0..N-1.
func (t *Memory) Send(msg Message) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	if msg.To < 0 || msg.To >= len(t.chans) {
		t.mu.Unlock()
		return fmt.Errorf("transport: no such node %d", msg.To)
	}
	copies, delays := Draw(t.rng, t.faults.LossProb, t.faults.DupProb, t.faults.MinDelay, t.faults.MaxDelay)
	if copies == 0 {
		t.mu.Unlock()
		return nil // injected loss — that is the contract
	}
	if copies == 2 {
		t.stats[msg.To].duplicated.Add(1)
	}
	t.stats[msg.To].sent.Add(int64(copies))
	t.wg.Add(copies)
	t.mu.Unlock()

	for _, d := range delays[:copies] {
		go func(d time.Duration) {
			defer t.wg.Done()
			if d > 0 {
				time.Sleep(d)
			}
			t.mu.Lock()
			closed := t.closed
			ch := t.chans[msg.To]
			t.mu.Unlock()
			if closed {
				return
			}
			select {
			case ch <- msg:
			default:
				// Receiver buffer full: overload is loss, but an
				// accounted one — the runtime's outcome reports it.
				t.stats[msg.To].dropped.Add(1)
				mQueueDrops.Inc()
			}
		}(d)
	}
	return nil
}

// MaxDelay is the longest delay Send can give a message.
func (t *Memory) MaxDelay() time.Duration { return max(t.faults.MinDelay, t.faults.MaxDelay) }

// Recv returns a node's receive channel; it closes when the transport does.
func (t *Memory) Recv(node int) <-chan Message { return t.chans[node] }

// Close waits for in-flight deliveries to finish and closes every receive
// channel.
func (t *Memory) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	t.wg.Wait()
	t.mu.Lock()
	for _, ch := range t.chans {
		close(ch)
	}
	t.mu.Unlock()
	return nil
}
