package scenario

import (
	"fmt"
	"hash/fnv"

	"repro/internal/algebras"
	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/gadgets"
	"repro/internal/wire"
)

// Runner is a preemptible scenario run for the service path: one live
// engine.Stepper advanced in quanta of engine steps — a quantum ends in
// a return, not a serialisation — and a paused run serialises, only
// when asked to, to a self-describing checkpoint file (the
// scenario text rides in the checkpoint metadata, so any process can
// rebuild the instance and resume). The sliced run is bit-identical —
// cells and work counters — to the run that was never paused; the
// engine stepper carries that proof, the runner adds the instance
// rebuild: on resume it replays the mutations of every already-fired
// event onto a fresh topology before resuming.
//
// The Runner schedules with the scenario's one source — the schedule Run
// plays and the reference evaluator replays — a pure function of (text,
// step, node), so the only schedule state a checkpoint needs is the step
// index, and equal scenario text replays the identical run in any
// process. The type parameter is erased behind the runnerCore interface,
// so a server can hold mixed-family runs in one table.
type Runner struct {
	sc      *Scenario
	evStep  map[int]bool
	horizon int
	done    bool
	core    runnerCore
}

// runnerCore is the family-typed part of a Runner.
type runnerCore interface {
	// advance steps the run to target (clamped to the horizon) and
	// reports whether it finished: horizon reached or convergence
	// certified.
	advance(target int) (done bool)
	// at is the last completed engine step (0 = not started).
	at() int
	// checkpoint serialises a snapshot of the paused run.
	checkpoint() ([]byte, error)
	finalHash() uint64
	finalTable() string
	progress() engine.Progress
	stats() engine.Stats
	close()
}

// MaxServiceableBytes caps a served scenario's text: what the service
// admits, and so what one spool entry holds.
const MaxServiceableBytes = 1 << 12

// Serviceable reports whether the scenario can run on the service path:
// everything Run's engine substrate accepts, as long as its text fits
// the serviceable-text cap.
func Serviceable(sc *Scenario) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	if len(sc.Encode()) > MaxServiceableBytes {
		return fmt.Errorf("scenario: encoded text exceeds the %d-byte serviceable-text cap", MaxServiceableBytes)
	}
	return nil
}

// NewRunner compiles a serviceable scenario into a fresh preemptible
// run. The runner owns an engine worker pool; Close it.
func NewRunner(sc *Scenario) (*Runner, error) {
	if err := Serviceable(sc); err != nil {
		return nil, err
	}
	return newRunner(sc, nil)
}

// ResumeRunner rebuilds a paused run from a checkpoint produced by
// Checkpoint, possibly in another process: the scenario text is read
// back from the checkpoint metadata, the instance is rebuilt, every
// event at or before the snapshot step is replayed onto the fresh
// topology, and the engine resumes from the snapshot. The continuation
// is bit-identical to the run that was never paused. A checkpoint whose
// family tag is not the embedded scenario's is refused by the decoder.
func ResumeRunner(data []byte) (*Runner, error) {
	_, meta, err := checkpoint.Header(data)
	if err != nil {
		return nil, err
	}
	text, ok := meta[metaScenario]
	if !ok {
		return nil, fmt.Errorf("scenario: checkpoint has no %s metadata (not a service checkpoint)", metaScenario)
	}
	sc, err := Parse([]byte(text))
	if err != nil {
		return nil, fmt.Errorf("scenario: embedded scenario: %w", err)
	}
	if err := Serviceable(sc); err != nil {
		return nil, err
	}
	return newRunner(sc, data)
}

// newRunner wraps a core over the scenario's family, fresh or — data
// non-nil — resumed from that checkpoint.
func newRunner(sc *Scenario, data []byte) (*Runner, error) {
	r := newShell(sc)
	var err error
	if sc.Spec.Gadget != "" {
		r.core, err = serviceCore(sc, buildGadget, data)
	} else {
		r.core, err = serviceCore(sc, buildTopo, data)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

// serviceCore builds the instance and starts or resumes a core over it
// under the scenario's schedule.
func serviceCore[R any](sc *Scenario, build func(*Scenario) (*instance[R], error), data []byte) (*svcCore[R], error) {
	inst, err := build(sc)
	if err != nil {
		return nil, err
	}
	return newCore(sc, inst, data)
}

func newShell(sc *Scenario) *Runner {
	r := &Runner{sc: sc, horizon: sc.Horizon, evStep: map[int]bool{}}
	for _, ev := range sc.Events {
		r.evStep[ev.Step] = true
	}
	return r
}

// Name returns the scenario's name.
func (r *Runner) Name() string { return r.sc.Name }

// Scenario returns the compiled scenario (callers must not mutate it).
func (r *Runner) Scenario() *Scenario { return r.sc }

// Step returns the last completed engine step.
func (r *Runner) Step() int { return r.core.at() }

// Horizon returns the scenario's step budget.
func (r *Runner) Horizon() int { return r.horizon }

// Done reports whether the run finished (horizon reached or convergence
// certified).
func (r *Runner) Done() bool { return r.done }

// Advance runs one quantum of at most quantum engine steps and pauses
// there (or finishes: a run that certifies convergence or reaches its
// horizon inside the quantum completes instead). The quantum boundary
// is bumped past event steps — an event step performs no activation, so
// there is nothing to checkpoint after it.
func (r *Runner) Advance(quantum int) (done bool, err error) {
	if r.done {
		return true, nil
	}
	if quantum < 1 {
		return false, fmt.Errorf("scenario: quantum %d, want ≥ 1", quantum)
	}
	target := r.core.at() + quantum
	for target < r.horizon && r.evStep[target] {
		target++
	}
	r.done = r.core.advance(target)
	return r.done, nil
}

// Checkpoint serialises the paused run as a self-describing checkpoint
// file. The run must have advanced at least once (a never-started run
// has nothing to snapshot; re-submit its scenario instead) and must not
// be done.
func (r *Runner) Checkpoint() ([]byte, error) {
	if r.done {
		return nil, fmt.Errorf("scenario: run is done, nothing to checkpoint")
	}
	if r.core.at() == 0 {
		return nil, fmt.Errorf("scenario: run has not started, checkpoint the scenario text instead")
	}
	return r.core.checkpoint()
}

// Progress returns the run's identity (final when Done, as of the last
// completed step otherwise): what the service reads, and free to read.
func (r *Runner) Progress() engine.Progress { return r.core.progress() }

// Stats returns the run counters (final when Done, as of the last
// completed step otherwise), RowsSkipped included: reading it counts the
// activations of every interlude the run jumped.
func (r *Runner) Stats() engine.Stats { return r.core.stats() }

// Converged reports certified convergence of a finished run.
func (r *Runner) Converged() (int, bool) {
	if !r.done {
		return -1, false
	}
	at := r.core.progress().ConvergedAt
	return at, at >= 0
}

// FinalHash returns the FNV-64a fingerprint of the finished run's final
// state cells (codec-encoded, row-major) and the resume-invariant work
// counters — the cross-process bit-identity witness: equal hashes mean
// equal tables and equal work.
func (r *Runner) FinalHash() uint64 {
	if !r.done {
		return 0
	}
	return r.core.finalHash()
}

// FinalTable returns the finished run's formatted routing table
// (instances of ≤ 12 nodes; empty otherwise).
func (r *Runner) FinalTable() string {
	if !r.done {
		return ""
	}
	return r.core.finalTable()
}

// Close abandons a run still in flight and releases the engine worker
// pool. The runner is unusable after.
func (r *Runner) Close() {
	if r.core != nil {
		r.core.close()
	}
}

// Checkpoint family tags and metadata keys.
const (
	familySPP    = "spp"
	familyNatInf = "natinf"
	metaScenario = "scenario"
	metaName     = "name"
)

// svcCore is the one place a scenario instance meets the engine: one
// engine and one stepper for the life of the run, behind a Runner and
// behind Run's engine substrate alike, both over source(sc, n).
type svcCore[R any] struct {
	sc   *Scenario
	inst *instance[R]
	eng  *engine.Engine[R]
	st   *engine.Stepper[R]
	res  *engine.Result[R] // set when the run finishes
}

// newCore starts a run of inst under the scenario's schedule at step 0,
// or — data non-nil — resumes it right after that checkpoint's step. inst
// must be freshly built: the core mutates its topology as the timeline
// plays.
func newCore[R any](sc *Scenario, inst *instance[R], data []byte) (*svcCore[R], error) {
	var snap *engine.Snapshot[R]
	fired := 0
	if data != nil {
		f, err := checkpoint.Decode(inst.codec, data, inst.family)
		if err != nil {
			return nil, err
		}
		snap = f.Snap
		// Bring the fresh topology to the snapshot instant: replay the
		// mutations of every event that already fired. Restarts and the
		// crash markers mutate no topology, so replaying through apply is
		// exact.
		for ; fired < len(sc.Events) && sc.Events[fired].Step <= snap.Step; fired++ {
			inst.apply(sc.Events[fired], inst.adj)
		}
	}
	c := &svcCore[R]{sc: sc, inst: inst, eng: engine.New(inst.alg, inst.adj, engine.Config{})}
	src, events := source(sc, inst.n), inst.timeline(sc.Events)[fired:]
	var err error
	if snap == nil {
		c.st, err = c.eng.Start(inst.start, src, events)
	} else {
		c.st, err = c.eng.Resume(snap, src, events)
	}
	if err != nil {
		c.eng.Close()
		return nil, err
	}
	return c, nil
}

func (c *svcCore[R]) advance(target int) bool {
	done := c.st.Step(target)
	if done {
		c.res = c.st.Result()
	}
	return done
}

func (c *svcCore[R]) at() int { return c.st.At() }

func (c *svcCore[R]) checkpoint() ([]byte, error) {
	snap, err := c.st.Snapshot()
	if err != nil {
		return nil, err
	}
	return checkpoint.Encode(c.inst.codec, &checkpoint.File[R]{
		Family: c.inst.family,
		Meta: map[string]string{
			metaScenario: string(c.sc.Encode()),
			metaName:     c.sc.Name,
		},
		Snap: snap,
	})
}

func (c *svcCore[R]) finalHash() uint64 {
	final := c.res.Final()
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(v int) {
		u := uint64(int64(v))
		for i := 0; i < 8; i++ {
			buf[i] = byte(u >> (56 - 8*i))
		}
		h.Write(buf[:])
	}
	// One buffer for every cell when the codec can append; Encode's slice
	// per cell otherwise. The bytes hashed are the same.
	app, _ := c.inst.codec.(wire.Appender[R])
	var b []byte
	n := c.inst.n
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var err error
			if app != nil {
				b, err = app.AppendEncode(b[:0], final.Get(i, j))
			} else {
				b, err = c.inst.codec.Encode(final.Get(i, j))
			}
			if err != nil {
				// Encode failures are build bugs, not data: fold the error
				// into the hash so mismatched runs cannot collide on 0.
				h.Write([]byte(err.Error()))
				continue
			}
			writeInt(len(b))
			h.Write(b)
		}
	}
	st := c.res.Progress()
	writeInt(st.Steps)
	writeInt(st.CellsComputed)
	writeInt(st.RowsComputed)
	writeInt(st.ConvergedAt)
	return h.Sum64()
}

func (c *svcCore[R]) finalTable() string {
	if c.inst.n > 12 {
		return ""
	}
	return c.res.Final().Format(c.inst.alg)
}

func (c *svcCore[R]) progress() engine.Progress { return c.st.Progress() }

func (c *svcCore[R]) stats() engine.Stats { return c.st.Stats() }

func (c *svcCore[R]) close() {
	c.st.Close()
	c.eng.Close()
}

// Interface conformance (both families).
var (
	_ runnerCore = (*svcCore[gadgets.Route])(nil)
	_ runnerCore = (*svcCore[algebras.NatInf])(nil)
)
