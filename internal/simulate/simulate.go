// Package simulate is a deterministic, seeded, event-driven simulator for
// asynchronous Distributed Bellman-Ford. It instantiates the Section 3.1
// model with an explicit message-passing interpretation: nodes activate on
// jittered timers, recompute their tables from the most recently delivered
// neighbour tables, and advertise; the network delays, drops, duplicates
// and reorders advertisements under seeded randomness.
//
// Every run of the simulator induces a valid (α, β) schedule — activations
// are α, and the send time of the advertisement a node last received from
// each neighbour is β — so Theorem 4 applies verbatim, and the simulator's
// outcomes are the experimental witnesses for it.
package simulate

import (
	"container/heap"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/trace"
)

// The message-passing periods, in virtual time units.
const (
	// minDelay is the least per-message delivery latency.
	minDelay = 1
	// activateEvery is the mean node activation period.
	activateEvery = 5
	// readvertiseEvery is the period of unconditional full-table
	// re-advertisement, the soft-state repair that discharges S3 under
	// loss.
	readvertiseEvery = 50
	// settleWindow is how long the global state must remain unchanged —
	// while σ-stable — before the run is declared converged.
	settleWindow = 4 * readvertiseEvery
)

// Config controls a simulation run.
type Config struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// LossProb is the probability an advertisement is silently dropped.
	LossProb float64
	// DupProb is the probability an advertisement is delivered twice.
	DupProb float64
	// MaxDelay bounds per-message delivery latency in virtual time units
	// (the least is 1); a wide range causes heavy reordering. Default: 10.
	MaxDelay int64
	// MaxTime aborts the run (non-convergence) past this virtual time.
	// Default: 100_000.
	MaxTime int64
	// Restarts optionally reinjects arbitrary state mid-run (Section 3.2
	// dynamics): at each listed virtual time, the node's table and
	// neighbour caches are replaced with garbage drawn by Gen.
	Restarts []Restart
	// Crashes take nodes down at a virtual time: a down node neither
	// activates nor advertises, and anything delivered to it is discarded
	// (the process is gone, so its loss is counted as drops). Recovers
	// bring crashed nodes back with a restart-style wiped state — the
	// crash lost whatever the node knew. The run cannot be declared
	// converged while any node is down or any crash/recover is pending.
	Crashes  []Crash
	Recovers []Crash
}

// Restart resets one node to an arbitrary state at a virtual time.
type Restart struct {
	Time int64
	Node int
}

// Crash marks one node down (Config.Crashes) or back up
// (Config.Recovers) at a virtual time.
type Crash struct {
	Time int64
	Node int
}

func (c Config) withDefaults() Config {
	if c.MaxDelay == 0 {
		c.MaxDelay = 10
	}
	if c.MaxTime == 0 {
		c.MaxTime = 100_000
	}
	return c
}

// Stats counts message-level events of a run.
type Stats struct {
	Sent, Delivered, Dropped, Duplicated int
	Activations                          int
}

// Outcome is the result of a run.
type Outcome[R any] struct {
	// Final is the global routing state when the run ended.
	Final *matrix.State[R]
	// Converged reports whether the run settled on a σ-stable state for a
	// full settle window before MaxTime.
	Converged bool
	// ConvergedAt is the virtual time of the last state change before the
	// settle window (meaningful only when Converged).
	ConvergedAt int64
	// EndTime is the virtual time the run stopped.
	EndTime int64
	Stats   Stats
}

// Change is a mid-run topology or policy change (Section 3.2): at the
// given virtual time, Mutate edits the adjacency in place (add or remove
// edges, swap policies). The continuing computation is, per the paper, a
// new problem instance whose starting state is whatever the network held
// at that moment — including routes that are now stale.
type Change[R any] struct {
	Time   int64
	Mutate func(adj *matrix.Adjacency[R])
}

type eventKind uint8

const (
	evActivate eventKind = iota
	evDeliver
	evRestart
	evChange
	evCrash
	evRecover
)

type event[R any] struct {
	time int64
	seq  int64
	kind eventKind
	node int // target node
	from int // sender, for evDeliver
	row  []R // advertised table, for evDeliver
	// step is the logical activation step at which the advertised table
	// was computed; used by schedule extraction.
	step int
}

type eventQueue[R any] []*event[R]

func (q eventQueue[R]) Len() int { return len(q) }
func (q eventQueue[R]) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue[R]) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue[R]) Push(x any)   { *q = append(*q, x.(*event[R])) }
func (q *eventQueue[R]) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// engine is the mutable state of one run.
type engine[R any] struct {
	alg   core.Algebra[R]
	adj   *matrix.Adjacency[R]
	cfg   Config
	rng   *rand.Rand
	queue eventQueue[R]
	seq   int64
	// recv[i][k] is the latest table row delivered to i from k.
	recv [][][]R
	// down[i] marks node i crashed: no activations, no deliveries, until
	// the matching recover event.
	down []bool
	// state is the omniscient global view: row i is node i's table.
	state      *matrix.State[R]
	lastChange int64
	stats      Stats
	// neighbours[i] lists k with an edge (i ← k)? No: out-neighbours for
	// advertisement, i.e. nodes j with an edge (j ← i), meaning j uses
	// i's table: edge (j, i) present.
	listeners [][]int
	genRoute  func(rng *rand.Rand) R
	changes   []Change[R]
	rec       *trace.Recorder
	// rowScratch is the reusable buffer activate computes σ-rows into;
	// SetRow and advertise both copy, so reuse is safe.
	rowScratch []R

	// Schedule extraction (nil unless requested): the logical step
	// counter, each node's last activation step, the step each receive
	// cache entry was computed at, and the recorded activation log.
	extract   *ScheduleLog
	stepCount int
	ownStep   []int
	recvStep  [][]int
}

// ScheduleLog records the (α, β) schedule a simulator run induces: entry
// t (1-based) says node Node activated at logical step t using, for each
// in-neighbour k, data computed at step Beta[k].
type ScheduleLog struct {
	N       int
	Entries []ScheduleEntry
}

// ScheduleEntry is one activation.
type ScheduleEntry struct {
	Node int
	Beta []int
}

// rebuildListeners recomputes who hears whom after a topology change.
func (e *engine[R]) rebuildListeners() {
	n := e.adj.N
	e.listeners = make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if _, ok := e.adj.Edge(j, i); ok && i != j {
				e.listeners[i] = append(e.listeners[i], j)
			}
		}
	}
}

// Run simulates the protocol from the given starting state and returns the
// outcome. genRoute, when non-nil, supplies arbitrary routes for Restart
// events; nil restarts reset rows to ∞ (and 0 for the self route).
func Run[R any](
	alg core.Algebra[R],
	adj *matrix.Adjacency[R],
	start *matrix.State[R],
	cfg Config,
	genRoute func(rng *rand.Rand) R,
) Outcome[R] {
	return RunDynamic(alg, adj, start, cfg, genRoute, nil)
}

// RunDynamic is Run with mid-flight topology changes. The adjacency is
// cloned, so the caller's copy is never mutated.
func RunDynamic[R any](
	alg core.Algebra[R],
	adj *matrix.Adjacency[R],
	start *matrix.State[R],
	cfg Config,
	genRoute func(rng *rand.Rand) R,
	changes []Change[R],
) Outcome[R] {
	return RunTraced(alg, adj, start, cfg, genRoute, changes, nil)
}

// RunTraced is RunDynamic with an optional event recorder; pass nil to
// disable tracing.
func RunTraced[R any](
	alg core.Algebra[R],
	adj *matrix.Adjacency[R],
	start *matrix.State[R],
	cfg Config,
	genRoute func(rng *rand.Rand) R,
	changes []Change[R],
	rec *trace.Recorder,
) Outcome[R] {
	cfg = cfg.withDefaults()
	n := adj.N
	e := &engine[R]{
		alg:      alg,
		adj:      adj.Clone(),
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		state:    start.Clone(),
		genRoute: genRoute,
		changes:  changes,
		rec:      rec,
	}
	// Node j listens to i's advertisements when the edge (j, i) exists:
	// σ(X)_jd uses A_jk(X_kd).
	e.rebuildListeners()
	// recv caches start from the initial state: β(…) = 0 initially.
	e.recv = make([][][]R, n)
	for i := 0; i < n; i++ {
		e.recv[i] = make([][]R, n)
		for k := 0; k < n; k++ {
			e.recv[i][k] = start.Row(k)
		}
	}
	heap.Init(&e.queue)
	for i := 0; i < n; i++ {
		e.push(&event[R]{time: 1 + e.rng.Int63n(activateEvery), kind: evActivate, node: i})
	}
	for _, r := range cfg.Restarts {
		e.push(&event[R]{time: r.Time, kind: evRestart, node: r.Node})
	}
	for _, c := range cfg.Crashes {
		e.push(&event[R]{time: c.Time, kind: evCrash, node: c.Node})
	}
	for _, c := range cfg.Recovers {
		e.push(&event[R]{time: c.Time, kind: evRecover, node: c.Node})
	}
	for idx, c := range changes {
		e.push(&event[R]{time: c.Time, kind: evChange, node: idx})
	}

	return e.loop()
}

// loop drains the event queue until quiescence, MaxTime, or exhaustion.
func (e *engine[R]) loop() Outcome[R] {
	cfg := e.cfg
	var now int64
	for e.queue.Len() > 0 {
		ev := heap.Pop(&e.queue).(*event[R])
		now = ev.time
		if now > cfg.MaxTime {
			return Outcome[R]{Final: e.state, Converged: false, EndTime: now, Stats: e.stats}
		}
		switch ev.kind {
		case evActivate:
			// A down node's timer keeps rescheduling (so activations resume
			// after recovery) but the node itself does nothing while down.
			if !e.isDown(ev.node) {
				e.activate(now, ev.node)
				// Quiescence check at activation boundaries (gated by the
				// settle window to amortise its cost).
				if now-e.lastChange >= settleWindow && e.noRestartsPending(now) && e.quiescent() {
					return Outcome[R]{
						Final: e.state, Converged: true,
						ConvergedAt: e.lastChange, EndTime: now, Stats: e.stats,
					}
				}
			}
			e.push(&event[R]{time: now + 1 + e.rng.Int63n(activateEvery), kind: evActivate, node: ev.node})
		case evDeliver:
			if e.isDown(ev.node) {
				// The receiving process is gone; its loss is just loss.
				e.stats.Dropped++
				if e.rec != nil {
					e.rec.Message(now, trace.MessageDropped, ev.from, ev.node)
				}
				continue
			}
			e.stats.Delivered++
			if e.rec != nil {
				e.rec.Message(now, trace.MessageDelivered, ev.from, ev.node)
			}
			e.recv[ev.node][ev.from] = ev.row
			if e.recvStep != nil {
				e.recvStep[ev.node][ev.from] = ev.step
			}
		case evCrash:
			if e.down == nil {
				e.down = make([]bool, e.adj.N)
			}
			e.down[ev.node] = true
			e.lastChange = now
			if e.rec != nil {
				e.rec.Restart(now, ev.node)
			}
		case evRecover:
			if e.isDown(ev.node) {
				e.down[ev.node] = false
				// The crash lost the node's state: it reboots wiped, the
				// same semantics as a restart event.
				e.restart(now, ev.node)
				if e.rec != nil {
					e.rec.Restart(now, ev.node)
				}
			}
		case evRestart:
			e.restart(now, ev.node)
			if e.rec != nil {
				e.rec.Restart(now, ev.node)
			}
		case evChange:
			e.changes[ev.node].Mutate(e.adj)
			e.rebuildListeners()
			e.lastChange = now
			if e.rec != nil {
				e.rec.Topology(now)
			}
		}
	}
	return Outcome[R]{Final: e.state, Converged: false, EndTime: now, Stats: e.stats}
}

// isDown reports whether node i is crashed and not yet recovered.
func (e *engine[R]) isDown(i int) bool { return e.down != nil && e.down[i] }

func (e *engine[R]) push(ev *event[R]) {
	ev.seq = e.seq
	e.seq++
	heap.Push(&e.queue, ev)
}

// activate recomputes node i's table from its caches and advertises it.
func (e *engine[R]) activate(now int64, i int) {
	e.stats.Activations++
	n := e.adj.N
	if e.extract != nil {
		e.stepCount++
		entry := ScheduleEntry{Node: i, Beta: make([]int, n)}
		for k := 0; k < n; k++ {
			entry.Beta[k] = e.recvStep[i][k]
		}
		e.extract.Entries = append(e.extract.Entries, entry)
		e.ownStep[i] = e.stepCount
	}
	// Recompute from the receive caches with the shared σ-row kernel
	// (this realises δ's β lookup).
	if e.rowScratch == nil {
		e.rowScratch = make([]R, n)
	}
	row := matrix.SigmaRowInto(e.alg, e.adj, i, nil, e.recv[i], e.rowScratch)
	changed := false
	for j := 0; j < n; j++ {
		if !e.alg.Equal(row[j], e.state.Get(i, j)) {
			changed = true
			if e.rec != nil {
				e.rec.Route(now, i, j, e.alg.Format(e.state.Get(i, j)), e.alg.Format(row[j]))
			}
		}
	}
	if changed {
		e.state.SetRow(i, row)
		e.lastChange = now
	}
	// Advertise when changed, and periodically regardless, so lost
	// messages are eventually repaired (the S3 discharge).
	if changed || now%readvertiseEvery < activateEvery {
		e.advertise(now, i, row)
	}
}

// RunExtracting is Run with schedule extraction: alongside the outcome it
// returns the (α, β) log the run induced, for replay through the literal δ
// evaluator. Extraction forces re-advertisement of the freshly computed
// table only (periodic re-adverts of an unchanged table re-send the same
// step, which is harmless duplication in the model).
func RunExtracting[R any](
	alg core.Algebra[R],
	adj *matrix.Adjacency[R],
	start *matrix.State[R],
	cfg Config,
) (Outcome[R], *ScheduleLog) {
	cfg = cfg.withDefaults()
	n := adj.N
	e := &engine[R]{
		alg:     alg,
		adj:     adj.Clone(),
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		state:   start.Clone(),
		extract: &ScheduleLog{N: n},
		ownStep: make([]int, n),
	}
	e.rebuildListeners()
	e.recv = make([][][]R, n)
	e.recvStep = make([][]int, n)
	for i := 0; i < n; i++ {
		e.recv[i] = make([][]R, n)
		e.recvStep[i] = make([]int, n)
		for k := 0; k < n; k++ {
			e.recv[i][k] = start.Row(k)
		}
	}
	heap.Init(&e.queue)
	for i := 0; i < n; i++ {
		e.push(&event[R]{time: 1 + e.rng.Int63n(activateEvery), kind: evActivate, node: i})
	}
	out := e.loop()
	return out, e.extract
}

// advertise sends node i's table to every listener with loss, duplication
// and random delay.
func (e *engine[R]) advertise(now int64, i int, row []R) {
	for _, j := range e.listeners[i] {
		e.stats.Sent++
		if e.rec != nil {
			e.rec.Message(now, trace.MessageSent, i, j)
		}
		if e.rng.Float64() < e.cfg.LossProb {
			e.stats.Dropped++
			if e.rec != nil {
				e.rec.Message(now, trace.MessageDropped, i, j)
			}
			continue
		}
		copies := 1
		if e.rng.Float64() < e.cfg.DupProb {
			copies = 2
			e.stats.Duplicated++
		}
		for c := 0; c < copies; c++ {
			delay := minDelay + e.rng.Int63n(e.cfg.MaxDelay-minDelay+1)
			payload := make([]R, len(row))
			copy(payload, row)
			step := 0
			if e.ownStep != nil {
				step = e.ownStep[i]
			}
			e.push(&event[R]{time: now + delay, kind: evDeliver, node: j, from: i, row: payload, step: step})
		}
	}
}

// restart wipes node i mid-run, simulating a crash-and-restart with
// arbitrary (or garbage) state. All of i's neighbour caches are corrupted
// too, modelling stale information held about a restarted peer.
func (e *engine[R]) restart(now int64, i int) {
	n := e.adj.N
	row := make([]R, n)
	for j := 0; j < n; j++ {
		switch {
		case i == j:
			row[j] = e.alg.Trivial()
		case e.genRoute != nil:
			row[j] = e.genRoute(e.rng)
		default:
			row[j] = e.alg.Invalid()
		}
	}
	e.state.SetRow(i, row)
	for k := 0; k < n; k++ {
		fresh := make([]R, n)
		for j := 0; j < n; j++ {
			if e.genRoute != nil {
				fresh[j] = e.genRoute(e.rng)
			} else {
				fresh[j] = e.alg.Invalid()
			}
		}
		e.recv[i][k] = fresh
	}
	e.lastChange = now
}

// quiescent reports whether the run has provably terminated: the global
// state is σ-stable, every receive cache agrees with the sender's current
// table, and every in-flight advertisement carries the sender's current
// table. Under these conditions every future activation recomputes exactly
// the current state, so nothing can ever change again.
func (e *engine[R]) quiescent() bool {
	for i := range e.down {
		if e.down[i] {
			return false // a partitioned network is not settled
		}
	}
	if !matrix.IsStable(e.alg, e.adj, e.state) {
		return false
	}
	n := e.adj.N
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			if _, ok := e.adj.Edge(i, k); !ok {
				continue // cache never read by activate
			}
			for j := 0; j < n; j++ {
				if !e.alg.Equal(e.recv[i][k][j], e.state.Get(k, j)) {
					return false
				}
			}
		}
	}
	for _, ev := range e.queue {
		if ev.kind != evDeliver {
			continue
		}
		for j := range ev.row {
			if !e.alg.Equal(ev.row[j], e.state.Get(ev.from, j)) {
				return false
			}
		}
	}
	return true
}

// noRestartsPending reports whether all configured restarts and topology
// changes are in the past, so a settled state cannot be disturbed again.
func (e *engine[R]) noRestartsPending(now int64) bool {
	for _, r := range e.cfg.Restarts {
		if r.Time > now {
			return false
		}
	}
	for _, c := range e.cfg.Crashes {
		if c.Time > now {
			return false
		}
	}
	for _, c := range e.cfg.Recovers {
		if c.Time > now {
			return false
		}
	}
	for _, c := range e.changes {
		if c.Time > now {
			return false
		}
	}
	return true
}

// Describe renders a one-line summary of an outcome.
func (o Outcome[R]) Describe() string {
	status := "DID NOT CONVERGE"
	if o.Converged {
		status = fmt.Sprintf("converged at t=%d", o.ConvergedAt)
	}
	return fmt.Sprintf("%s (end=%d, sent=%d delivered=%d dropped=%d dup=%d activations=%d)",
		status, o.EndTime, o.Stats.Sent, o.Stats.Delivered, o.Stats.Dropped, o.Stats.Duplicated, o.Stats.Activations)
}
