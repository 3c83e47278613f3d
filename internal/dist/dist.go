// Package dist is the live asynchronous engine: one goroutine per router
// exchanging encoded full-table advertisements over a transport that may
// drop, duplicate, delay and reorder them. It is the third substrate of
// the Section 3 model — alongside the literal δ evaluator and the
// deterministic event simulator — and it shares the same per-node update
// kernel (matrix.SigmaRowInto); only the source of the neighbour tables
// differs: here they come from a receive cache fed by real concurrency.
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
	// loss.
	readvertiseEvery = 20 * time.Millisecond
	// settleWindow is how long the global state must stay unchanged —
	// while σ-stable with consistent caches — before the run is declared
	// converged.
	settleWindow = 8 * readvertiseEvery
)

// Config controls a live run. Message faults belong to the transport the
// caller builds (transport.Faults), not to the network.
type Config struct {
	// Seed drives the per-node activation jitter.
	Seed int64
	// Timeout aborts the run (non-convergence) after this wall-clock time.
	// Default: 30s.
	Timeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	return c
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
	alg   core.Algebra[R]
	adj   *matrix.Adjacency[R]
	codec wire.Codec[R]
	tr    *transport.Memory
	cfg   Config

	// mu guards the omniscient view used for convergence detection — the
	// global state and every node's receive cache — and, now that scenario
	// runs mutate topology mid-flight, the adjacency itself. Routers are
	// still truly concurrent — the lock covers only cache/table/topology
	// access, never message latency.
	mu      sync.Mutex
	state   *matrix.State[R]
	recv    [][][]R // recv[i][k]: latest table delivered to i from k
	recvSeq [][]uint64
	changed time.Time
	// pendingOps counts ApplyAfter hooks that have not fired yet;
	// quiescence is withheld while any are outstanding.
	pendingOps atomic.Int32
	// muts are the ApplyAfter hooks, armed when Run starts.
	muts []scheduledMut[R]

	// Router lifecycle (see supervisor.go). ctl holds each node's current
	// router handle; allCtls is the append-only join list Run drains at
	// shutdown; down marks nodes crashed and not yet recovered; runCtx is
	// the run context recovery spawns under, and stopped blocks spawns once
	// shutdown has begun; restarts counts recoveries for RunStats. All
	// mu-guarded.
	ctl      []*routerCtl
	allCtls  []*routerCtl
	down     []bool
	runCtx   context.Context
	stopped  bool
	restarts int64
	// seqs are the per-node advertisement sequence counters. They live on
	// the network, not the router goroutine, so a restarted router
	// continues its predecessor's sequence — otherwise peers' freshness
	// guards would discard everything it says as stale.
	seqs []atomic.Uint64
}

// scheduledMut is one ApplyAfter registration.
type scheduledMut[R any] struct {
	after time.Duration
	f     func(*Network[R])
}

// ApplyAfter schedules f to run against the live network d after Run
// starts — how scenario timelines (link failures, policy edits, restarts,
// crashes and recoveries) are played against a running network. The
// run cannot be declared quiescent while scheduled mutations are
// pending, so a network that settles before its faults arrive keeps
// running. Must be called before Run.
func (nw *Network[R]) ApplyAfter(d time.Duration, f func(*Network[R])) {
	nw.muts = append(nw.muts, scheduledMut[R]{after: d, f: f})
}

// Mutate edits the live adjacency in place under the network lock and
// reopens the settle window: a link failure or recovery, a weight change,
// or a policy edit (re-ranking a path in a shared SPP table) whose edge
// functions the routers apply concurrently under the same lock. It is the
// same edit engine.TimelineEvent.Mutate and simulate.Sim.Mutate apply.
func (nw *Network[R]) Mutate(f func(adj *matrix.Adjacency[R])) {
	nw.mu.Lock()
	f(nw.adj)
	nw.changed = time.Now()
	nw.mu.Unlock()
}

// RestartNode wipes node i mid-run: its table resets to the identity row
// (trivial to itself, invalid elsewhere) and its receive caches to
// invalid, modelling a crash-and-restart that also lost its peers' state.
func (nw *Network[R]) RestartNode(i int) {
	nw.mu.Lock()
	nw.wipeLocked(i)
	nw.mu.Unlock()
}

// wipeLocked resets node i's table to the identity row and its receive
// caches to invalid — what a rebooted router knows. Callers hold mu.
func (nw *Network[R]) wipeLocked(i int) {
	n := nw.adj.N
	row := make([]R, n)
	for j := range row {
		row[j] = nw.alg.Invalid()
	}
	row[i] = nw.alg.Trivial()
	nw.state.SetRow(i, row)
	for k := 0; k < n; k++ {
		fresh := make([]R, n)
		for j := range fresh {
			fresh[j] = nw.alg.Invalid()
		}
		nw.recv[i][k] = fresh
	}
	nw.changed = time.Now()
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
	n := adj.N
	nw := &Network[R]{
		alg:   alg,
		adj:   adj.Clone(),
		codec: codec,
		tr:    tr,
		cfg:   cfg.withDefaults(),
		state: start.Clone(),
	}
	nw.recv = make([][][]R, n)
	nw.recvSeq = make([][]uint64, n)
	for i := 0; i < n; i++ {
		nw.recv[i] = make([][]R, n)
		nw.recvSeq[i] = make([]uint64, n)
		for k := 0; k < n; k++ {
			nw.recv[i][k] = start.Row(k)
		}
	}
	nw.ctl = make([]*routerCtl, n)
	nw.down = make([]bool, n)
	nw.seqs = make([]atomic.Uint64, n)
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
	for i := 0; i < nw.adj.N; i++ {
		nw.spawnLocked(ctx, i)
	}
	nw.mu.Unlock()

	var timers []*time.Timer
	for _, m := range nw.muts {
		m := m
		nw.pendingOps.Add(1)
		timers = append(timers, time.AfterFunc(m.after, func() {
			m.f(nw)
			nw.pendingOps.Add(-1)
		}))
	}
	defer func() {
		for _, tm := range timers {
			tm.Stop()
		}
	}()

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
	final := nw.state.Clone()
	var downNodes []int
	for i, d := range nw.down {
		if d {
			downNodes = append(downNodes, i)
		}
	}
	stats := RunStats{Restarts: nw.restarts}
	nw.mu.Unlock()

	for _, st := range nw.tr.Stats() {
		stats.QueueDrops += st.Dropped
	}
	class := ClassConverged
	switch {
	case converged:
	case len(downNodes) > 0:
		class = ClassPartitioned
	default:
		class = ClassDegraded
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

	n := nw.adj.N
	scratch := make([]R, n)

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
			if nw.recompute(i, scratch) {
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
	if err != nil || adv.From < 0 || adv.From >= nw.adj.N || len(adv.Rows) != nw.adj.N {
		return // corrupt frames are indistinguishable from loss
	}
	row := make([]R, len(adv.Rows))
	for j, b := range adv.Rows {
		r, err := nw.codec.Decode(b)
		if err != nil {
			return
		}
		row[j] = r
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if adv.Seq < nw.recvSeq[i][adv.From] {
		return
	}
	nw.recvSeq[i][adv.From] = adv.Seq
	nw.recv[i][adv.From] = row
}

// recompute applies the shared σ-row kernel to node i's receive cache and
// reports whether the node's table changed.
func (nw *Network[R]) recompute(i int, scratch []R) bool {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	row := matrix.SigmaRowInto(nw.alg, nw.adj, i, nil, nw.recv[i], scratch)
	changed := false
	for j := range row {
		if !nw.alg.Equal(row[j], nw.state.Get(i, j)) {
			changed = true
			break
		}
	}
	if changed {
		nw.state.SetRow(i, row)
		nw.changed = time.Now()
	}
	return changed
}

// advertise encodes node i's current table and sends it to every listener
// (nodes j with an edge (j, i), i.e. nodes whose σ-row reads i's table).
// The listener set is gathered under the lock — the adjacency can mutate
// mid-run — but the sends happen outside it, so a slow transport never
// holds up the omniscient view. A Send error is shutdown (ErrClosed);
// like any undelivered advert it is loss, which the model absorbs.
func (nw *Network[R]) advertise(i int, seq uint64) {
	nw.mu.Lock()
	row := nw.state.Row(i)
	n := nw.adj.N
	listeners := make([]int, 0, n)
	for j := 0; j < n; j++ {
		if _, ok := nw.adj.Edge(j, i); ok && j != i {
			listeners = append(listeners, j)
		}
	}
	nw.mu.Unlock()
	rows := make([][]byte, len(row))
	for j, r := range row {
		b, err := nw.codec.Encode(r)
		if err != nil {
			return
		}
		rows[j] = b
	}
	payload := wire.EncodeAdvert(wire.Advert{From: i, Seq: seq, Rows: rows})
	for _, j := range listeners {
		_ = nw.tr.Send(transport.Message{From: i, To: j, Payload: payload})
	}
}

// monitor polls for provable quiescence: the global state is σ-stable,
// every receive cache read by some edge agrees with the sender's current
// table, and nothing has changed for a full settle window (which dominates
// the transport's maximum delay, so no perturbing advert is in flight).
func (nw *Network[R]) monitor(ctx context.Context) bool {
	tick := time.NewTicker(settleWindow / 8)
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
	for _, d := range nw.down {
		if d {
			// A down node can neither verify nor repair anything; the run
			// is not settled, it is partitioned until someone recovers it.
			return false
		}
	}
	if time.Since(nw.changed) < settleWindow {
		return false
	}
	n := nw.adj.N
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			if _, ok := nw.adj.Edge(i, k); !ok {
				continue
			}
			for j := 0; j < n; j++ {
				if !nw.alg.Equal(nw.recv[i][k][j], nw.state.Get(k, j)) {
					return false
				}
			}
		}
	}
	return matrix.IsStable(nw.alg, nw.adj, nw.state)
}
