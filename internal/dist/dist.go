// Package dist is the live asynchronous engine: one goroutine per router
// exchanging encoded full-table advertisements over a transport that may
// drop, duplicate, delay and reorder them. It is the third substrate of
// the Section 3 model, and it runs the event simulator's nodes: one
// router state machine (internal/router) under two drivers. Here the
// driver is the wall clock: goroutines call the router under one lock,
// transport.Memory carries the adverts (its faults drawn as the
// simulator's are, by transport.Draw), and what only a live network needs
// stays in this package — route codecs, the sequence guard on each
// advert's Seq, ApplyAfter, and a settle window that outlasts the
// transport's longest delay.
//
// The network runs exactly what its caller schedules, through the same
// four verbs the event simulator's run state (simulate.Sim) offers:
// Mutate edits the live adjacency, CrashNode stops a router, RecoverNode
// and RestartNode reboot one wiped, and nothing crashes or heals a router
// on its own. A timeline event therefore means the same thing here as on
// the other two substrates.
package dist

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/router"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The message-passing periods. They are the live counterparts of the
// simulator's virtual-time constants.
const (
	// activateEvery is the mean per-node recomputation period.
	activateEvery = 2 * time.Millisecond
	// readvertiseEvery is the period of unconditional full-table
	// re-advertisement — the soft-state repair that discharges S3 under
	// loss — and of the convergence monitor's poll.
	readvertiseEvery = 20 * time.Millisecond
)

// settleWindow is how long the global state must stay unchanged — while
// the router has settled — before the run is declared converged. It
// outlasts the transport's longest delay by a re-advertisement period,
// so no advert sent before the last change can still be in flight; an
// older advert arriving after quiescence was judged would pass the
// sequence guard whenever nothing newer from its sender had landed.
func settleWindow(maxDelay time.Duration) time.Duration {
	return max(8*readvertiseEvery, maxDelay+readvertiseEvery)
}

// Config controls a live run. Message faults belong to the transport the
// caller builds (transport.Faults), not to the network.
type Config struct {
	// Seed drives the per-node activation jitter.
	Seed int64
	// Timeout aborts the run (non-convergence) after this wall-clock time.
	// Default: 30s.
	Timeout time.Duration
}

// Class grades how a live run ended: converged cleanly, timed out with
// every router up (degraded — overload, loss, or a genuinely divergent
// policy), or timed out with nodes still down (partitioned). The run
// always terminates with one of these — it never hangs.
type Class int

const (
	ClassConverged Class = iota
	ClassDegraded
	ClassPartitioned
)

func (c Class) String() string {
	switch c {
	case ClassConverged:
		return "converged"
	case ClassDegraded:
		return "degraded"
	case ClassPartitioned:
		return "partitioned"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// RunStats counts the recoveries and transport drops of a live run.
type RunStats struct {
	// Restarts counts routers respawned by RecoverNode.
	Restarts int64
	// QueueDrops counts messages the transport dropped on full receive
	// buffers (the sum of transport.NodeStats.Dropped at run end).
	QueueDrops int64
}

// Outcome is the result of a live run.
type Outcome[R any] struct {
	// Final is the global routing state when the run ended.
	Final *matrix.State[R]
	// Converged reports whether the run settled on a σ-stable state with
	// consistent receive caches for a full settle window before Timeout.
	Converged bool
	// Class grades the ending; Converged implies ClassConverged.
	Class Class
	// DownNodes lists routers still down when the run ended.
	DownNodes []int
	// Stats counts recoveries and transport drops.
	Stats RunStats
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// Describe renders a one-line summary of an outcome.
func (o Outcome[R]) Describe() string {
	if o.Converged {
		s := fmt.Sprintf("converged in %v", o.Elapsed.Round(time.Millisecond))
		if o.Stats.Restarts > 0 {
			s += fmt.Sprintf(" (%d restart(s))", o.Stats.Restarts)
		}
		return s
	}
	s := fmt.Sprintf("DID NOT CONVERGE within %v: %s", o.Elapsed.Round(time.Millisecond), o.Class)
	if len(o.DownNodes) > 0 {
		s += fmt.Sprintf(", nodes %v down", o.DownNodes)
	}
	return s
}

// Network is a set of live routers wired to a transport.
type Network[R any] struct {
	codec wire.Codec[R]
	tr    *transport.Memory
	cfg   Config

	// mu guards the router — the omniscient view used for convergence
	// detection, every node's receive cache, which nodes are down, and the
	// adjacency scenario runs mutate mid-flight — and the fields below.
	// Routers are still truly concurrent — the lock covers only
	// cache/table/topology access, never message latency.
	mu sync.Mutex
	r  *router.Router[R]
	// recvSeq[i][k] is the Seq of the advert installed at i from k.
	recvSeq [][]uint64
	changed time.Time
	// pendingOps counts ApplyAfter hooks that have not fired yet;
	// quiescence is withheld while any are outstanding.
	pendingOps atomic.Int32
	// muts arm the ApplyAfter hooks when Run starts.
	muts []func() *time.Timer

	// Router lifecycle (see supervisor.go). ctl holds each node's current
	// router handle; allCtls is the append-only join list Run drains at
	// shutdown; runCtx is the run context recovery spawns under, and
	// stopped blocks spawns once shutdown has begun; restarts counts
	// recoveries for RunStats. All mu-guarded.
	ctl      []*routerCtl
	allCtls  []*routerCtl
	runCtx   context.Context
	stopped  bool
	restarts int64
	// seqs are the per-node advertisement sequence counters. They live on
	// the network, not the router goroutine, so a restarted router
	// continues its predecessor's sequence — otherwise peers' freshness
	// guards would discard everything it says as stale.
	seqs []atomic.Uint64
}

// ApplyAfter schedules f to run against the live network d after Run
// starts — how scenario timelines (link failures, policy edits, restarts,
// crashes and recoveries) are played against a running network. The
// run cannot be declared quiescent while scheduled mutations are
// pending, so a network that settles before its faults arrive keeps
// running. Must be called before Run.
func (nw *Network[R]) ApplyAfter(d time.Duration, f func(*Network[R])) {
	nw.pendingOps.Add(1)
	nw.muts = append(nw.muts, func() *time.Timer {
		return time.AfterFunc(d, func() {
			f(nw)
			nw.pendingOps.Add(-1)
		})
	})
}

// Mutate edits the live adjacency in place under the network lock and
// reopens the settle window: a link failure or recovery, a weight change,
// or a policy edit (re-ranking a path in a shared SPP table) whose edge
// functions the routers apply concurrently under the same lock. It is the
// same edit engine.TimelineEvent.Mutate and simulate.Sim.Mutate apply.
func (nw *Network[R]) Mutate(f func(adj *matrix.Adjacency[R])) {
	nw.mu.Lock()
	nw.r.Mutate(f)
	nw.changed = time.Now()
	nw.mu.Unlock()
}

// RestartNode wipes node i mid-run: its table resets to the identity row
// (trivial to itself, invalid elsewhere) and its receive caches to
// invalid, modelling a crash-and-restart that also lost its peers' state.
func (nw *Network[R]) RestartNode(i int) {
	nw.mu.Lock()
	nw.r.Wipe(i, nil, nil)
	nw.changed = time.Now()
	nw.mu.Unlock()
}

// NewNetwork builds a live network over the transport. The starting state
// is cloned; the caller's copy is never mutated.
func NewNetwork[R any](
	alg core.Algebra[R],
	adj *matrix.Adjacency[R],
	start *matrix.State[R],
	codec wire.Codec[R],
	tr *transport.Memory,
	cfg Config,
) *Network[R] {
	if cfg.Timeout == 0 {
		cfg.Timeout = 30 * time.Second
	}
	n := adj.N
	nw := &Network[R]{
		codec:   codec,
		tr:      tr,
		cfg:     cfg,
		r:       router.New(alg, adj, start),
		recvSeq: make([][]uint64, n),
		ctl:     make([]*routerCtl, n),
		seqs:    make([]atomic.Uint64, n),
	}
	for i := range nw.recvSeq {
		nw.recvSeq[i] = make([]uint64, n)
	}
	return nw
}

// Run starts one goroutine per router and a convergence monitor, and
// blocks until the network settles, the context is cancelled, or the
// timeout fires. On the way out it cancels and joins every router it
// ever spawned and closes the transport, so a finished run leaves no
// goroutine behind whatever crashed or recovered mid-way.
func (nw *Network[R]) Run(ctx context.Context) Outcome[R] {
	ctx, cancel := context.WithTimeout(ctx, nw.cfg.Timeout)
	defer cancel()
	begin := time.Now()
	nw.mu.Lock()
	nw.changed = begin
	nw.runCtx = ctx
	for i := 0; i < nw.r.State.N; i++ {
		nw.spawnLocked(ctx, i)
	}
	nw.mu.Unlock()

	for _, arm := range nw.muts {
		defer arm().Stop()
	}

	converged := nw.monitor(ctx)
	cancel()
	// Shutdown order matters: fence off late recovery timers with
	// `stopped`, then join every router ever spawned, then close the
	// transport under no remaining senders.
	nw.mu.Lock()
	nw.stopped = true
	ctls := append([]*routerCtl(nil), nw.allCtls...)
	nw.mu.Unlock()
	for _, c := range ctls {
		<-c.done
	}
	_ = nw.tr.Close()

	nw.mu.Lock()
	final := nw.r.State.Clone()
	var downNodes []int
	for i, d := range nw.r.Down {
		if d {
			downNodes = append(downNodes, i)
		}
	}
	stats := RunStats{Restarts: nw.restarts}
	nw.mu.Unlock()

	for _, st := range nw.tr.Stats() {
		stats.QueueDrops += st.Dropped
	}
	class := ClassDegraded
	switch {
	case converged:
		class = ClassConverged
	case len(downNodes) > 0:
		class = ClassPartitioned
	}
	return Outcome[R]{
		Final:     final,
		Converged: converged,
		Class:     class,
		DownNodes: downNodes,
		Stats:     stats,
		Elapsed:   time.Since(begin),
	}
}

// router is the per-node event loop: receive adverts into the cache,
// recompute on a jittered timer, advertise on change and periodically.
func (nw *Network[R]) router(ctx context.Context, i int) {
	rng := rand.New(rand.NewSource(nw.cfg.Seed*1009 + int64(i)))
	jitter := func(d time.Duration) time.Duration {
		return d/2 + time.Duration(rng.Int63n(int64(d)))
	}
	activate := time.NewTimer(jitter(activateEvery))
	defer activate.Stop()
	readvertise := time.NewTicker(jitter(readvertiseEvery))
	defer readvertise.Stop()

	for {
		select {
		case <-ctx.Done():
			return
		case msg, ok := <-nw.tr.Recv(i):
			if !ok {
				return
			}
			nw.deliver(i, msg)
		case <-activate.C:
			nw.mu.Lock()
			_, changed := nw.r.Recompute(i, nil)
			if changed {
				nw.changed = time.Now()
			}
			nw.mu.Unlock()
			if changed {
				nw.advertise(i, nw.seqs[i].Add(1))
			}
			activate.Reset(jitter(activateEvery))
		case <-readvertise.C:
			nw.advertise(i, nw.seqs[i].Add(1))
		}
	}
}

// deliver decodes an advert and installs it in node i's receive cache,
// discarding reordered duplicates of older adverts (the soft-state
// freshness guard every real routing daemon applies).
func (nw *Network[R]) deliver(i int, msg transport.Message) {
	adv, err := wire.DecodeAdvert(msg.Payload)
	if n := nw.r.State.N; err != nil || adv.From < 0 || adv.From >= n || len(adv.Rows) != n {
		return // corrupt frames are indistinguishable from loss
	}
	row := make([]R, len(adv.Rows))
	for j, b := range adv.Rows {
		if row[j], err = nw.codec.Decode(b); err != nil {
			return
		}
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if adv.Seq < nw.recvSeq[i][adv.From] {
		return
	}
	nw.recvSeq[i][adv.From] = adv.Seq
	nw.r.Install(i, adv.From, row)
}

// advertise encodes node i's current table and sends it to every listener
// (the nodes whose σ-row reads i's table). The listener set is read under
// the lock — the adjacency can mutate mid-run — but the sends happen
// outside it, so a slow transport never holds up the omniscient view. A
// Send error is shutdown (ErrClosed); like any undelivered advert it is
// loss, which the model absorbs.
func (nw *Network[R]) advertise(i int, seq uint64) {
	nw.mu.Lock()
	row := nw.r.State.Row(i)
	listeners := nw.r.Listeners(i)
	nw.mu.Unlock()
	rows := make([][]byte, len(row))
	for j, r := range row {
		var err error
		if rows[j], err = nw.codec.AppendEncode(nil, r); err != nil {
			return
		}
	}
	payload := wire.EncodeAdvert(wire.Advert{From: i, Seq: seq, Rows: rows})
	for _, j := range listeners {
		_ = nw.tr.Send(transport.Message{From: i, To: j, Payload: payload})
	}
}

// monitor polls for provable quiescence: the router has settled
// (router.Settled) and nothing has changed for a full settle window,
// which outlasts the transport's longest delay, so no perturbing advert
// is in flight.
func (nw *Network[R]) monitor(ctx context.Context) bool {
	tick := time.NewTicker(readvertiseEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return false
		case <-tick.C:
			if nw.quiescent() {
				return true
			}
		}
	}
}

func (nw *Network[R]) quiescent() bool {
	if nw.pendingOps.Load() != 0 {
		return false
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return time.Since(nw.changed) >= settleWindow(nw.tr.MaxDelay()) && nw.r.Settled()
}
