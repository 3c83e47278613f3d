package scenario

import (
	"fmt"
	"hash/fnv"

	"repro/internal/algebras"
	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/gadgets"
)

// Runner is a preemptible scenario run for the service path: one live
// engine.Stepper advanced in quanta of engine steps — a quantum ends in
// a return, not a serialisation. The sliced run is bit-identical — cells
// and work counters — to the run that was never paused; the engine
// stepper carries that proof.
//
// The Runner schedules with the scenario's one source — the schedule Run
// plays and the reference evaluator replays — a pure function of (text,
// step, node), so durability is replay: equal scenario text replays the
// identical run in any process, and a checkpoint is the text, a step and
// the state there as a witness. The type parameter is erased behind the
// runnerCore interface, so a server can hold mixed-family runs in one
// table.
type Runner struct {
	sc   *Scenario
	done bool
	core runnerCore
}

// runnerCore is the family-typed part of a Runner.
type runnerCore interface {
	// advance steps the run to target (clamped to the horizon) and
	// reports whether it finished: horizon reached or convergence
	// certified.
	advance(target int) (done bool)
	// at is the last completed engine step (0 = not started).
	at() int
	// checkpoint serialises the paused run's text, step and state.
	checkpoint() ([]byte, error)
	// resume replays a fresh run to a checkpoint's step and holds its
	// state to the checkpoint's witness.
	resume(data []byte) error
	finalHash() uint64
	finalTable() string
	progress() engine.Progress
	stats() engine.Stats
	close()
}

// MaxServiceableBytes caps a served scenario's submitted text: what the
// service admits, and so what one spool entry holds. Every scenario
// Validate accepts encodes under it, so the cap is on raw bytes only.
const MaxServiceableBytes = 1 << 12

// NewRunner compiles a valid scenario into a fresh preemptible run. The
// runner owns an engine worker pool; Close it.
func NewRunner(sc *Scenario) (*Runner, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	r := &Runner{sc: sc}
	var err error
	if sc.Spec.Gadget != "" {
		r.core, err = serviceCore(sc, buildGadget)
	} else {
		r.core, err = serviceCore(sc, buildTopo)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

// serviceCore builds the instance and starts a core over it under the
// scenario's schedule.
func serviceCore[R any](sc *Scenario, build func(*Scenario) (*instance[R], error)) (*svcCore[R], error) {
	inst, err := build(sc)
	if err != nil {
		return nil, err
	}
	return newCore(sc, inst)
}

// ResumeRunner rebuilds a paused run from a checkpoint produced by
// Checkpoint, possibly in another process, by replay: the scenario text
// is read back from the checkpoint, a fresh run of it is advanced to the
// checkpoint's step, and the file is refused unless the replayed state
// equals its witness — a checkpoint resumed by a build whose δ differs
// fails instead of continuing a different run. A checkpoint whose family
// tag is not the embedded scenario's is refused by the decoder.
//
// ResumeRunner, Checkpoint and checkpoint.Decode stay only for cmd/bench,
// which times them; they go with its checkpoint rows when the benchmark
// is re-based (ROADMAP item 1).
func ResumeRunner(data []byte) (*Runner, error) {
	_, text, err := checkpoint.Header(data)
	if err != nil {
		return nil, err
	}
	sc, err := Parse([]byte(text))
	if err != nil {
		return nil, fmt.Errorf("scenario: embedded scenario: %w", err)
	}
	r, err := NewRunner(sc)
	if err != nil {
		return nil, err
	}
	if err := r.core.resume(data); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// Step returns the last completed engine step.
func (r *Runner) Step() int { return r.core.at() }

// Advance runs one quantum of at most quantum engine steps and pauses
// there (or finishes: a run that certifies convergence or reaches its
// horizon inside the quantum completes instead).
func (r *Runner) Advance(quantum int) (done bool, err error) {
	if r.done {
		return true, nil
	}
	if quantum < 1 {
		return false, fmt.Errorf("scenario: quantum %d, want ≥ 1", quantum)
	}
	r.done = r.core.advance(r.core.at() + quantum)
	return r.done, nil
}

// Checkpoint serialises the paused run as a self-describing checkpoint
// file: the scenario text, the last completed step and the state there.
// The run must have advanced at least once (a never-started run is its
// text; re-submit it instead) and must not be done. It stays only for
// cmd/bench, as ResumeRunner does.
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
// state cells (codec-encoded, row-major) and the pause-invariant work
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

// Checkpoint family tags.
const (
	familySPP    = "spp"
	familyNatInf = "natinf"
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

// newCore starts a run of inst under the scenario's schedule at step 0.
// inst must be freshly built: the core mutates its topology as the
// timeline plays.
func newCore[R any](sc *Scenario, inst *instance[R]) (*svcCore[R], error) {
	c := &svcCore[R]{sc: sc, inst: inst, eng: engine.New(inst.alg, inst.adj, engine.Config{})}
	var err error
	if c.st, err = c.eng.Start(inst.start, source(sc, inst.n), inst.timeline(sc.Events)); err != nil {
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
	return checkpoint.Encode(c.inst.codec, &checkpoint.File[R]{
		Family: c.inst.family, Text: string(c.sc.Encode()), Step: c.at(), State: c.st.State(),
	})
}

func (c *svcCore[R]) resume(data []byte) error {
	f, err := checkpoint.Decode(c.inst.codec, data, c.inst.family)
	if err != nil {
		return err
	}
	if f.Step < 1 || c.advance(f.Step) {
		return fmt.Errorf("scenario: checkpoint at step %d, but the replayed run ended at step %d", f.Step, c.at())
	}
	if !c.st.State().Equal(c.inst.alg, f.State) {
		return fmt.Errorf("scenario: the state replayed to step %d differs from the checkpoint's witness", f.Step)
	}
	return nil
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
	var b []byte
	n := c.inst.n
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var err error
			if b, err = c.inst.codec.AppendEncode(b[:0], final.Get(i, j)); err != nil {
				// Encoding failures are build bugs, not data: fold the error
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
