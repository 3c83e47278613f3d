// Package dist is the live asynchronous engine: one goroutine per router
// exchanging encoded full-table advertisements over a transport that may
// drop, duplicate, delay and reorder them. It is the third substrate of
// the Section 3 model — alongside the literal δ evaluator and the
// deterministic event simulator — and it shares the same per-node update
// kernel (matrix.SigmaRowInto); only the source of the neighbour tables
// differs: here they come from a receive cache fed by real concurrency.
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

// Config controls a live run.
type Config struct {
	// Seed drives the per-node activation jitter.
	Seed int64
	// Timeout aborts the run (non-convergence) after this wall-clock time.
	// Default: 30s.
	Timeout time.Duration
	// ActivateEvery is the mean per-node recomputation period. Default: 2ms.
	ActivateEvery time.Duration
	// ReadvertiseEvery is the period of unconditional full-table
	// re-advertisement — the soft-state repair that discharges S3 under
	// loss. Default: 20ms.
	ReadvertiseEvery time.Duration
	// SettleWindow is how long the global state must stay unchanged — while
	// σ-stable with consistent caches — before the run is declared
	// converged. Default: 8 × ReadvertiseEvery.
	SettleWindow time.Duration
	// LossProb, DupProb, MinDelay and MaxDelay are the transport fault
	// knobs, mirroring simulate.Config and transport.Faults so a live run
	// can reproduce a simulator fault profile. They take effect through
	// Faults() — RunLocal applies them automatically; callers wiring their
	// own transport pass Faults() to it.
	LossProb           float64
	DupProb            float64
	MinDelay, MaxDelay time.Duration
	// QueueLen bounds each node's transport receive buffer (see
	// transport.Faults.QueueLen); 0 means the transport default.
	QueueLen int
	// Restarts schedules mid-run node restarts (the live form of
	// simulate.Restart): each wipes the node's table and receive caches a
	// fixed interval into the run. The run cannot settle while restarts
	// are pending.
	Restarts []Restart
	// HeartbeatTimeout is the supervisor's failure-detector deadline: a
	// router that has not beaten for this long is declared crashed.
	// Default: max(10 × ActivateEvery, 2 × ReadvertiseEvery).
	HeartbeatTimeout time.Duration
	// SnapshotEvery is how often the supervisor snapshots each live
	// node's table for crash recovery. Default: ReadvertiseEvery.
	SnapshotEvery time.Duration
	// AutoHeal restarts heartbeat-detected failures from their last
	// snapshot instead of leaving them down. Intentional crashes
	// (CrashNode, scenario `crash` events) are never auto-healed — their
	// recovery timing belongs to whoever crashed them.
	AutoHeal bool
}

// Restart wipes one node a fixed interval into a live run.
type Restart struct {
	After time.Duration
	Node  int
}

// Faults returns the transport fault profile the Config describes.
func (c Config) Faults() transport.Faults {
	return transport.Faults{LossProb: c.LossProb, DupProb: c.DupProb, MinDelay: c.MinDelay, MaxDelay: c.MaxDelay, QueueLen: c.QueueLen}
}

func (c Config) withDefaults() Config {
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	if c.ActivateEvery == 0 {
		c.ActivateEvery = 2 * time.Millisecond
	}
	if c.ReadvertiseEvery == 0 {
		c.ReadvertiseEvery = 20 * time.Millisecond
	}
	if c.SettleWindow == 0 {
		c.SettleWindow = 8 * c.ReadvertiseEvery
	}
	if c.HeartbeatTimeout == 0 {
		c.HeartbeatTimeout = 10 * c.ActivateEvery
		if hb := 2 * c.ReadvertiseEvery; hb > c.HeartbeatTimeout {
			c.HeartbeatTimeout = hb
		}
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = c.ReadvertiseEvery
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

// RunStats counts the supervisor's and transport's interventions over a
// live run.
type RunStats struct {
	// CrashesDetected counts heartbeat-deadline failures the supervisor
	// declared (silent deaths and wedged routers — not intentional
	// CrashNode calls, which announce themselves).
	CrashesDetected int64
	// Restarts counts routers respawned from a snapshot, whether by
	// AutoHeal or an explicit RecoverNode.
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
	// Stats counts supervisor and transport interventions.
	Stats RunStats
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// Describe renders a one-line summary of an outcome.
func (o Outcome[R]) Describe() string {
	if o.Converged {
		s := fmt.Sprintf("converged in %v", o.Elapsed.Round(time.Millisecond))
		if o.Stats.Restarts > 0 {
			s += fmt.Sprintf(" (%d restart(s), %d failure(s) detected)", o.Stats.Restarts, o.Stats.CrashesDetected)
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
	// pendingOps counts scheduled mutations — Config.Restarts and
	// ApplyAfter hooks — that have not fired yet; quiescence is withheld
	// while any are outstanding.
	pendingOps atomic.Int32
	// muts are the ApplyAfter hooks, armed when Run starts.
	muts []scheduledMut[R]

	// Supervisor state (see supervisor.go). ctl holds each node's current
	// router handle; allCtls is the append-only join list Run drains at
	// shutdown; down marks nodes crashed and not yet recovered; snaps is
	// the per-node snapshot store (codec-encoded rows); runCtx is the run
	// context recovery spawns under, and stopped blocks spawns once
	// shutdown has begun. All mu-guarded except the atomics.
	ctl     []*routerCtl
	allCtls []*routerCtl
	down    []bool
	snaps   [][][]byte
	runCtx  context.Context
	stopped bool
	clock   atomic.Int64   // the supervisor's running-time clock (see supervise)
	beats   []atomic.Int64 // each router's latest reading of clock: its heartbeat
	// seqs are the per-node advertisement sequence counters. They live on
	// the network, not the router goroutine, so a restarted router
	// continues its predecessor's sequence — otherwise peers' freshness
	// guards would discard everything it says as stale.
	seqs     []atomic.Uint64
	runStats struct {
		crashes, restarts atomic.Int64
	}
}

// scheduledMut is one ApplyAfter registration.
type scheduledMut[R any] struct {
	after time.Duration
	f     func(*Network[R])
}

// ApplyAfter schedules f to run against the live network d after Run
// starts — the generic form of Config.Restarts, used to play scenario
// timelines (link failures, policy edits) against a running network. The
// run cannot be declared quiescent while scheduled mutations are
// pending, so a network that settles before its faults arrive keeps
// running. Must be called before Run.
func (nw *Network[R]) ApplyAfter(d time.Duration, f func(*Network[R])) {
	nw.muts = append(nw.muts, scheduledMut[R]{after: d, f: f})
}

// SetEdge installs or replaces the live edge (i, j) mid-run — a link
// recovery or a policy/weight edit played against a running network.
func (nw *Network[R]) SetEdge(i, j int, e core.Edge[R]) {
	nw.mu.Lock()
	nw.adj.SetEdge(i, j, e)
	nw.changed = time.Now()
	nw.mu.Unlock()
}

// RemoveEdge fails the live edge (i, j) mid-run.
func (nw *Network[R]) RemoveEdge(i, j int) {
	nw.mu.Lock()
	nw.adj.RemoveEdge(i, j)
	nw.changed = time.Now()
	nw.mu.Unlock()
}

// Touch records a policy-state edit that changed edge behaviour without
// reinstalling an edge value, so the settle window reopens.
func (nw *Network[R]) Touch() {
	nw.mu.Lock()
	nw.adj.Touch()
	nw.changed = time.Now()
	nw.mu.Unlock()
}

// Mutate runs f under the network lock and reopens the settle window —
// for live policy-state edits (e.g. re-ranking a path in a shared SPP
// table) whose edge functions the routers apply concurrently under the
// same lock. Plain topology edits should use SetEdge/RemoveEdge instead.
func (nw *Network[R]) Mutate(f func()) {
	nw.mu.Lock()
	f()
	nw.adj.Touch()
	nw.changed = time.Now()
	nw.mu.Unlock()
}

// RestartNode wipes node i mid-run: its table resets to the identity row
// (trivial to itself, invalid elsewhere) and its receive caches to
// invalid, modelling a crash-and-restart that also lost its peers' state.
func (nw *Network[R]) RestartNode(i int) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
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
	nw.snaps = make([][][]byte, n)
	nw.beats = make([]atomic.Int64, n)
	nw.seqs = make([]atomic.Uint64, n)
	return nw
}

// RunLocal runs a network over a fresh seeded in-memory transport built
// from the Config's fault knobs — the one-call way to reproduce a
// simulator fault profile live. The transport is closed when the run
// ends.
func RunLocal[R any](
	alg core.Algebra[R],
	adj *matrix.Adjacency[R],
	start *matrix.State[R],
	codec wire.Codec[R],
	cfg Config,
) Outcome[R] {
	tr := transport.NewMemory(adj.N, cfg.Seed, cfg.Faults())
	nw := NewNetwork(alg, adj, start, codec, tr, cfg)
	out := nw.Run(context.Background())
	tr.Close()
	return out
}

// Run starts one goroutine per router, the supervisor, and a convergence
// monitor, and blocks until the network settles, the context is
// cancelled, or the timeout fires. On the way out it cancels and joins
// every router it ever spawned and closes the transport, so a finished
// run leaves no goroutine behind whatever crashed or recovered mid-way.
func (nw *Network[R]) Run(ctx context.Context) Outcome[R] {
	ctx, cancel := context.WithTimeout(ctx, nw.cfg.Timeout)
	defer cancel()
	begin := time.Now()
	nw.changed = begin
	nw.runCtx = ctx

	muts := nw.muts
	for _, rs := range nw.cfg.Restarts {
		node := rs.Node
		muts = append(muts, scheduledMut[R]{after: rs.After, f: func(nw *Network[R]) {
			nw.RestartNode(node)
		}})
	}
	var timers []*time.Timer
	for _, m := range muts {
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

	n := nw.adj.N
	for i := 0; i < n; i++ {
		nw.spawn(ctx, i)
	}
	supDone := make(chan struct{})
	go func() {
		defer close(supDone)
		nw.supervise(ctx)
	}()

	converged := nw.monitor(ctx)
	cancel()
	// Shutdown order matters: join the supervisor first (it is the only
	// thing that spawns routers mid-run besides recovery timers, which
	// `stopped` fences off), then join every router ever spawned, then
	// close the transport under no remaining senders.
	<-supDone
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
	nw.mu.Unlock()

	stats := RunStats{
		CrashesDetected: nw.runStats.crashes.Load(),
		Restarts:        nw.runStats.restarts.Load(),
	}
	for _, st := range nw.tr.Stats() {
		stats.QueueDrops += st.Dropped
	}
	mRunQueueDrops.Add(float64(stats.QueueDrops))
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
	activate := time.NewTimer(jitter(nw.cfg.ActivateEvery))
	defer activate.Stop()
	readvertise := time.NewTicker(jitter(nw.cfg.ReadvertiseEvery))
	defer readvertise.Stop()

	n := nw.adj.N
	scratch := make([]R, n)

	for {
		// The heartbeat the supervisor's failure detector watches: a live
		// router beats at least every activation period (plus jitter),
		// far inside the deadline.
		nw.beats[i].Store(nw.clock.Load())
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
			activate.Reset(jitter(nw.cfg.ActivateEvery))
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
	tick := time.NewTicker(nw.cfg.SettleWindow / 8)
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
	// Convergence also attests liveness: every router must have beaten
	// within the failure-detector deadline. A silently dead router may
	// hold a fixed-point table right now, but it can never repair a
	// future loss — declaring quiescence over it would race the detector.
	now := nw.clock.Load()
	for i := range nw.beats {
		if now-nw.beats[i].Load() > int64(nw.cfg.HeartbeatTimeout) {
			return false
		}
	}
	if time.Since(nw.changed) < nw.cfg.SettleWindow {
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
