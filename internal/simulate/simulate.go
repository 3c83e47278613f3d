// Package simulate is a deterministic, seeded, event-driven simulator for
// asynchronous Distributed Bellman-Ford. It instantiates the Section 3.1
// model with an explicit message-passing interpretation: nodes activate on
// jittered timers, recompute their tables from the most recently delivered
// neighbour tables, and advertise; the network delays, drops, duplicates
// and reorders advertisements under seeded randomness.
//
// Its nodes are the live network's (internal/dist): one router state
// machine (internal/router) under two drivers, each message's fate drawn
// by transport.Draw on both. The simulator is the virtual-clock driver:
// one goroutine, an event heap in virtual ticks, and adverts handed over
// as rows, since nothing here crosses a process boundary.
//
// Every run of the simulator induces a valid (α, β) schedule — activations
// are α, and the send time of the advertisement a node last received from
// each neighbour is β — so Theorem 4 applies verbatim, and the simulator's
// outcomes are the experimental witnesses for it.
//
// Mid-run events (Section 3.2) come as one list of timed Events. Each
// event's Apply plays it through the run's verbs — Mutate, RestartNode,
// CrashNode and RecoverNode, the same verbs the live network in
// internal/dist offers — so a scenario event reaches both message-passing
// substrates through the same code.
package simulate

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/router"
	"repro/internal/trace"
	"repro/internal/transport"
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
	// (the least is 1); a wide range causes heavy reordering. Zero means
	// the default, 10, and a negative value means 1 (transport.Draw takes
	// a bound below the least delay as the least); cmd/dbfsim refuses
	// both as flags.
	MaxDelay int64
	// MaxTime aborts the run (non-convergence) past this virtual time.
	// Default: 100_000.
	MaxTime int64
	// Trace, when non-nil, records the run's route changes, messages,
	// restarts and topology changes.
	Trace *trace.Recorder
	// Log, when non-nil, receives the (α, β) schedule the run induces,
	// for replay through the literal δ evaluator (async.FromLog).
	Log *ScheduleLog
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

// Event is one mid-run event (Section 3.2): at virtual time Time, Apply
// plays it against the running simulation through Sim's verbs. The
// continuing computation is, per the paper, a new problem instance whose
// starting state is whatever the network held at that moment — including
// routes that are now stale. Events at equal times fire in list order.
type Event[R any] struct {
	Time  int64
	Apply func(*Sim[R])
}

type eventKind uint8

const (
	evActivate eventKind = iota
	evDeliver
	evScheduled
)

type event[R any] struct {
	time int64
	seq  int64
	kind eventKind
	node int // target node; for evScheduled, the index into Sim.events
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

// Sim is the mutable state of one run. Events act on it through its
// verbs; everything else is internal to the run.
type Sim[R any] struct {
	alg core.Algebra[R]
	// r is every node's protocol state; a down node neither activates nor
	// takes deliveries until RecoverNode brings it back.
	r          *router.Router[R]
	cfg        Config
	rng        *rand.Rand
	queue      eventQueue[R]
	seq        int64
	now        int64
	lastChange int64
	stats      Stats
	genRoute   func(rng *rand.Rand) R
	events     []Event[R]
	// lastEvent is the latest event time: a settled state before it
	// can still be disturbed.
	lastEvent int64

	// Schedule extraction, kept only when Config.Log is set (recvStep is
	// nil otherwise): the logical step counter, each node's last
	// activation step, and the step each receive cache entry was computed
	// at.
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

// Run simulates the protocol from the given starting state, playing the
// events at their virtual times, and returns the outcome. genRoute, when
// non-nil, supplies arbitrary routes for the state a restarted or
// recovered node reboots with; nil resets rows to ∞ (and 0 for the self
// route). The adjacency is cloned, so the caller's copy is never mutated.
func Run[R any](
	alg core.Algebra[R],
	adj *matrix.Adjacency[R],
	start *matrix.State[R],
	cfg Config,
	genRoute func(rng *rand.Rand) R,
	events ...Event[R],
) Outcome[R] {
	cfg = cfg.withDefaults()
	n := adj.N
	s := &Sim[R]{
		alg:      alg,
		r:        router.New(alg, adj, start),
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		genRoute: genRoute,
		events:   events,
		ownStep:  make([]int, n),
	}
	if s.cfg.Log != nil {
		s.cfg.Log.N = n
		s.recvStep = make([][]int, n)
		for i := range s.recvStep {
			s.recvStep[i] = make([]int, n)
		}
	}
	heap.Init(&s.queue)
	for i := 0; i < n; i++ {
		s.push(&event[R]{time: 1 + s.rng.Int63n(activateEvery), kind: evActivate, node: i})
	}
	for idx, ev := range events {
		s.push(&event[R]{time: ev.Time, kind: evScheduled, node: idx})
		s.lastEvent = max(s.lastEvent, ev.Time)
	}
	return s.loop()
}

// loop drains the event queue until quiescence, MaxTime, or exhaustion.
func (s *Sim[R]) loop() Outcome[R] {
	for s.queue.Len() > 0 {
		ev := heap.Pop(&s.queue).(*event[R])
		now := ev.time
		s.now = now
		if now > s.cfg.MaxTime {
			break
		}
		switch ev.kind {
		case evActivate:
			// A down node's timer keeps rescheduling (so activations resume
			// after recovery) but the node itself does nothing while down.
			if !s.r.Down[ev.node] {
				s.activate(now, ev.node)
				// Quiescence check at activation boundaries (gated by the
				// settle window to amortise its cost).
				if now-s.lastChange >= settleWindow && now >= s.lastEvent && s.quiescent() {
					return Outcome[R]{
						Final: s.r.State, Converged: true,
						ConvergedAt: s.lastChange, EndTime: now, Stats: s.stats,
					}
				}
			}
			s.push(&event[R]{time: now + 1 + s.rng.Int63n(activateEvery), kind: evActivate, node: ev.node})
		case evDeliver:
			if s.r.Down[ev.node] {
				// The receiving process is gone; its loss is just loss.
				s.stats.Dropped++
				if s.cfg.Trace != nil {
					s.cfg.Trace.Message(now, trace.MessageDropped, ev.from, ev.node)
				}
				continue
			}
			s.stats.Delivered++
			if s.cfg.Trace != nil {
				s.cfg.Trace.Message(now, trace.MessageDelivered, ev.from, ev.node)
			}
			s.r.Install(ev.node, ev.from, ev.row)
			if s.recvStep != nil {
				s.recvStep[ev.node][ev.from] = ev.step
			}
		case evScheduled:
			s.events[ev.node].Apply(s)
		}
	}
	return Outcome[R]{Final: s.r.State, Converged: false, EndTime: s.now, Stats: s.stats}
}

// Mutate edits the adjacency in place (add or remove edges, swap
// policies) and reopens the settle window.
func (s *Sim[R]) Mutate(f func(adj *matrix.Adjacency[R])) {
	s.r.Mutate(f)
	s.lastChange = s.now
	if s.cfg.Trace != nil {
		s.cfg.Trace.Topology(s.now)
	}
}

// CrashNode takes node i down: it neither activates nor advertises, and
// anything delivered to it is discarded (the process is gone, so its loss
// is counted as drops). The run cannot be declared converged while any
// node is down.
func (s *Sim[R]) CrashNode(i int) {
	s.r.Down[i] = true
	s.lastChange = s.now
	if s.cfg.Trace != nil {
		s.cfg.Trace.Restart(s.now, i)
	}
}

// RecoverNode brings a crashed node back. The crash lost the node's
// state, so it reboots wiped, exactly as RestartNode leaves it.
// Recovering a node that is not down does nothing.
func (s *Sim[R]) RecoverNode(i int) {
	if s.r.Down[i] {
		s.r.Down[i] = false
		s.RestartNode(i)
	}
}

// RestartNode wipes node i mid-run, simulating a crash-and-restart with
// arbitrary (or garbage) state. All of i's neighbour caches are corrupted
// too, modelling stale information held about a restarted peer.
func (s *Sim[R]) RestartNode(i int) {
	s.r.Wipe(i, s.genRoute, s.rng)
	s.lastChange = s.now
	if s.cfg.Trace != nil {
		s.cfg.Trace.Restart(s.now, i)
	}
}

func (s *Sim[R]) push(ev *event[R]) {
	ev.seq = s.seq
	s.seq++
	heap.Push(&s.queue, ev)
}

// activate recomputes node i's table from its caches and advertises it.
func (s *Sim[R]) activate(now int64, i int) {
	s.stats.Activations++
	if s.cfg.Log != nil {
		s.stepCount++
		s.cfg.Log.Entries = append(s.cfg.Log.Entries, ScheduleEntry{Node: i, Beta: append([]int(nil), s.recvStep[i]...)})
		s.ownStep[i] = s.stepCount
	}
	// Recompute from the receive caches (this realises δ's β lookup).
	var onChange func(j int, old, new R)
	if s.cfg.Trace != nil {
		onChange = func(j int, old, new R) {
			s.cfg.Trace.Route(now, i, j, s.alg.Format(old), s.alg.Format(new))
		}
	}
	row, changed := s.r.Recompute(i, onChange)
	if changed {
		s.lastChange = now
	}
	// Advertise when changed, and periodically regardless, so lost
	// messages are eventually repaired (the S3 discharge).
	if changed || now%readvertiseEvery < activateEvery {
		s.advertise(now, i, row)
	}
}

// advertise sends node i's table to every listener, each message's loss,
// duplication and delay drawn by transport.Draw.
func (s *Sim[R]) advertise(now int64, i int, row []R) {
	for _, j := range s.r.Listeners(i) {
		s.stats.Sent++
		if s.cfg.Trace != nil {
			s.cfg.Trace.Message(now, trace.MessageSent, i, j)
		}
		copies, delays := transport.Draw(s.rng, s.cfg.LossProb, s.cfg.DupProb, minDelay, s.cfg.MaxDelay)
		switch copies {
		case 0:
			s.stats.Dropped++
			if s.cfg.Trace != nil {
				s.cfg.Trace.Message(now, trace.MessageDropped, i, j)
			}
			continue
		case 2:
			s.stats.Duplicated++
		}
		for _, delay := range delays[:copies] {
			payload := make([]R, len(row))
			copy(payload, row)
			s.push(&event[R]{time: now + delay, kind: evDeliver, node: j, from: i, row: payload, step: s.ownStep[i]})
		}
	}
}

// quiescent reports whether the run has provably terminated: the router
// has settled (router.Settled) and every in-flight advertisement carries
// the sender's current table. Under these conditions every future
// activation recomputes exactly the current state, so nothing can ever
// change again.
func (s *Sim[R]) quiescent() bool {
	if !s.r.Settled() {
		return false
	}
	for _, ev := range s.queue {
		if ev.kind == evDeliver && !slices.EqualFunc(ev.row, s.r.State.RowView(ev.from), s.alg.Equal) {
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
