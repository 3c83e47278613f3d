// Package server is the dbfsimd simulation service: a daemon that
// accepts scenario runs over wire frames on transport stream
// connections and multiplexes them onto preemptible scenario runners
// with a robustness core —
//
//   - admission control: a per-tenant cap on in-flight runs and the
//     scenario package's cap on scenario size; excess load is shed with
//     typed retriable errors carrying retry-after hints, never queued
//     unboundedly;
//   - fair scheduling: tenants accumulate virtual time in proportion to
//     the engine steps they consume, and the next quantum always goes to
//     the runnable tenant with the least virtual time — a late tenant's
//     first run starts at the current virtual clock and is therefore
//     scheduled next;
//   - preemption: runs execute in bounded quanta, each a Step call on
//     the run's one live engine stepper that ends in a return, so a long
//     run cannot hold a worker while other tenants starve, and a paused
//     run continues bit-identically (cells and counters) when its turn
//     comes back;
//   - durability: with a spool directory, a run's submitted text is
//     written there before the run is acknowledged and its terminal
//     frame before the outcome is visible, so the spool is complete at
//     every instant; a restarted server serves the stored outcomes and
//     re-admits every other run, replaying it from step 0 to exactly the
//     result the uninterrupted run would have produced — a served run is
//     a pure function of its text.
package server

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/transport"
	"repro/internal/wire"
)

// maxResults bounds the table of terminal outcomes — results and
// failures alike, oldest evicted.
const maxResults = 1024

// Config configures a Server.
type Config struct {
	// Addr is the listen address; default "127.0.0.1:0".
	Addr string
	// Workers is the number of concurrent run-advancing workers;
	// default 2.
	Workers int
	// Quantum is the engine-step slice between preemption points;
	// default 64.
	Quantum int
	// SpoolDir, when set, makes runs durable: each admitted run's text
	// and each finished run's outcome are written there as they happen,
	// and New replays the unfinished runs and serves the outcomes.
	SpoolDir string
	// MaxInFlight caps each tenant's admitted, unfinished runs (queued,
	// running or preempted); default 4.
	MaxInFlight int
	// MaxTenants bounds the tenant table; default 64.
	MaxTenants int
	// RetryAfter is the backoff hint attached to shed load; default
	// 200ms.
	RetryAfter time.Duration
	// Logf, when set, receives one line per lifecycle event (default
	// discards).
	Logf func(format string, args ...any)

	// Metrics is the registry the server instruments; default
	// metrics.Default. Tests pass a private registry for isolation.
	Metrics *metrics.Registry

	// Stall, when set, sleeps after every quantum — a fault-injection
	// knob. Engine quanta on the scenario sizes the caps admit complete
	// in microseconds, far below wall-clock observability; the lifecycle
	// tests and the CI kill-mid-run smoke use this to hold runs
	// demonstrably mid-flight across probes, kills and restarts.
	Stall time.Duration
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Quantum <= 0 {
		c.Quantum = 64
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 200 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Metrics == nil {
		c.Metrics = metrics.Default
	}
	return c
}

// tenant is one tenant's scheduling state.
type tenant struct {
	name     string
	vtime    float64
	queued   []*run // admitted, waiting for a worker (FIFO)
	inflight int    // admitted, unfinished runs
}

// run is one admitted scenario run.
type run struct {
	tenant   *tenant
	id       string // client-chosen, unique per tenant
	key      string // tenant + "/" + id
	sc       *scenario.Scenario
	deadline time.Time // zero = none
	runner   *scenario.Runner
	// spoolPath is the spool file holding the run's text (.scn, or a
	// legacy .ckpt); it goes once the outcome is spooled.
	spoolPath string
	resumed   bool // re-admitted after a restart (reported in Status)
	phase     wire.RunPhase
	// step and cells mirror the runner's position as of the last quantum
	// boundary, written under the server lock so status probes never
	// touch the runner a worker owns.
	step  int
	cells int64
	subs  []*clientConn
	// Span log: lifecycle events since born, appended and read under the
	// server lock (see trace.go).
	born         time.Time
	trace        []spanEvent // head: admission and early quanta
	traceTail    []spanEvent // rolling window of the most recent events
	traceDropped int
	quanta       int // quanta executed so far, for span labels
}

// Server is the dbfsimd daemon core.
type Server struct {
	cfg Config
	ln  *transport.Listener
	met *srvMetrics

	mu       sync.Mutex
	cond     *sync.Cond
	tenants  map[string]*tenant
	runs     map[string]*run
	results  map[string]wire.Frame // finished runs' terminal frames: Result or ErrorFrame
	order    []string              // results eviction order
	vclock   float64               // virtual time of the most recent scheduling decision
	conns    map[*clientConn]struct{}
	finished []RunInfo // bounded ring of completed runs for /runs

	closed bool

	workerWG sync.WaitGroup
	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup
}

// New starts a server: it recovers any spooled runs, binds the
// listener and launches the workers.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		tenants: make(map[string]*tenant),
		runs:    make(map[string]*run),
		results: make(map[string]wire.Frame),
		conns:   make(map[*clientConn]struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.met = newSrvMetrics(cfg.Metrics)
	if cfg.SpoolDir != "" {
		if err := s.recoverSpool(); err != nil {
			return nil, err
		}
	}
	ln, err := transport.Listen(cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.acceptWG.Add(1)
	go s.acceptLoop()
	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	s.cfg.Logf("server: listening on %s (%d workers, quantum %d)", ln.Addr(), cfg.Workers, cfg.Quantum)
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// tenantLocked returns (creating if needed) the tenant's scheduling
// state; nil when the tenant table is full.
func (s *Server) tenantLocked(name string) *tenant {
	if t, ok := s.tenants[name]; ok {
		return t
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		return nil
	}
	t := &tenant{name: name, vtime: s.vclock}
	s.tenants[name] = t
	return t
}

// enqueueLocked makes the run schedulable. A tenant going from idle to
// runnable re-enters at the current virtual clock, so a tenant that
// was quiet keeps no banked priority and a brand-new tenant is next in
// line — the no-starvation half of stride scheduling.
func (s *Server) enqueueLocked(r *run) {
	t := r.tenant
	if len(t.queued) == 0 && t.vtime < s.vclock {
		t.vtime = s.vclock
	}
	t.queued = append(t.queued, r)
	s.met.queueDepth.Inc()
	s.cond.Signal()
}

// nextLocked blocks for the next run to advance: the FIFO head of the
// runnable tenant with minimal virtual time. Returns nil when the
// server closes.
func (s *Server) nextLocked() *run {
	for {
		if s.closed {
			return nil
		}
		var best *tenant
		for _, t := range s.tenants {
			if len(t.queued) == 0 {
				continue
			}
			if best == nil || t.vtime < best.vtime ||
				(t.vtime == best.vtime && t.name < best.name) {
				best = t
			}
		}
		if best != nil {
			r := best.queued[0]
			best.queued = best.queued[1:]
			s.vclock = best.vtime
			r.quanta++
			r.phase = wire.PhaseRunning
			r.spanLocked("scheduled quantum %d (vtime %.1f)", r.quanta, best.vtime)
			s.met.queueDepth.Dec()
			return r
		}
		s.cond.Wait()
	}
}

func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		s.mu.Lock()
		r := s.nextLocked()
		s.mu.Unlock()
		if r == nil {
			return
		}
		s.advance(r)
	}
}

// advance runs one quantum of r outside the server lock.
func (s *Server) advance(r *run) {
	if !r.deadline.IsZero() && time.Now().After(r.deadline) {
		s.finish(r, nil, &wire.ErrorFrame{
			ID: r.id, Code: wire.CodeDeadline,
			Msg: fmt.Sprintf("run exceeded its deadline at step %d/%d", r.step, r.sc.Horizon),
		})
		return
	}
	if r.runner == nil {
		var err error
		if r.runner, err = scenario.NewRunner(r.sc); err != nil {
			s.finish(r, nil, &wire.ErrorFrame{ID: r.id, Code: wire.CodeInternal, Msg: err.Error()})
			return
		}
	}
	before := r.runner.Step()
	qStart := time.Now()
	done, err := r.runner.Advance(s.cfg.Quantum)
	if s.cfg.Stall > 0 {
		time.Sleep(s.cfg.Stall)
	}
	s.met.quantumSec.Observe(time.Since(qStart).Seconds())
	if err != nil {
		s.finish(r, nil, &wire.ErrorFrame{ID: r.id, Code: wire.CodeInternal, Msg: err.Error()})
		return
	}
	steps := r.runner.Step() - before
	if steps < 1 {
		steps = 1
	}

	if done {
		convergedAt, _ := r.runner.Converged()
		st := r.runner.Progress()
		s.mu.Lock()
		r.tenant.vtime += float64(st.Steps - before)
		s.met.vtimeLag.With(r.tenant.name).Set(r.tenant.vtime - s.vclock)
		r.step = st.Steps
		r.cells = int64(st.CellsComputed)
		s.mu.Unlock()
		res := wire.Result{
			ID: r.id, Steps: int64(st.Steps), ConvergedAt: int64(convergedAt),
			CellsComputed: int64(st.CellsComputed), Hash: r.runner.FinalHash(),
			Table: r.runner.FinalTable(),
		}
		s.finish(r, &res, nil)
		return
	}

	s.mu.Lock()
	r.tenant.vtime += float64(steps)
	s.met.vtimeLag.With(r.tenant.name).Set(r.tenant.vtime - s.vclock)
	r.phase = wire.PhasePreempted
	r.step = r.runner.Step()
	r.cells = int64(r.runner.Progress().CellsComputed)
	r.spanLocked("quantum %d: steps %d→%d (cells %d), preempted", r.quanta, before, r.step, r.cells)
	s.met.preemptions.Inc()
	// Push the preemption Status before re-queueing, still under the lock:
	// no worker can dequeue the run (and push later progress, or its
	// Result) until we release it, so a client reads a run's frames in
	// step order and nothing after the terminal one. push never blocks.
	status := s.statusLocked(r)
	for _, cc := range r.subs {
		cc.push(status, false)
	}
	s.enqueueLocked(r)
	s.mu.Unlock()
}

// phaseLocked is the phase a run reports: a re-admitted run still
// waiting for its first quantum reads as resumed.
func (r *run) phaseLocked() wire.RunPhase {
	if r.resumed && r.phase == wire.PhaseQueued {
		return wire.PhaseResumed
	}
	return r.phase
}

// statusLocked snapshots a run's progress from the mirrored
// quantum-boundary counters — never from the runner, which a worker
// may own outside the lock.
func (s *Server) statusLocked(r *run) wire.Status {
	return wire.Status{
		ID: r.id, Phase: r.phaseLocked(),
		Step: int64(r.step), Horizon: int64(r.sc.Horizon),
		CellsComputed: r.cells,
	}
}

// finish completes a run with a result or a terminal error, storing the
// outcome, releasing the runner and the in-flight slot, and notifying
// subscribers.
func (s *Server) finish(r *run, res *wire.Result, ef *wire.ErrorFrame) {
	if r.runner != nil {
		r.runner.Close()
		r.runner = nil
	}
	var terminal wire.Frame
	if res != nil {
		terminal = *res
	} else {
		terminal = *ef
	}
	// The outcome reaches the spool, and the text leaves it, before the
	// outcome becomes visible: a client that reads the result finds the
	// spool already holding it.
	if r.spoolPath != "" {
		s.spoolOutcome(r, terminal)
	}
	s.mu.Lock()
	r.tenant.inflight--
	s.met.inflight.With(r.tenant.name).Set(float64(r.tenant.inflight))
	var outcome string
	if res != nil {
		s.met.finished.With("ok").Inc()
		r.step, r.cells = int(res.Steps), res.CellsComputed
		outcome = fmt.Sprintf("ok: steps=%d converged=%d hash=%x", res.Steps, res.ConvergedAt, res.Hash)
		r.spanLocked("finished: steps=%d converged=%d", res.Steps, res.ConvergedAt)
	} else {
		s.met.finished.With("error").Inc()
		outcome = "error: " + ef.Error()
		r.spanLocked("failed: %s", ef.Msg)
	}
	evicted := s.storeResultLocked(r.key, terminal)
	s.recordFinishedLocked(r, outcome)
	delete(s.runs, r.key)
	subs := r.subs
	r.subs = nil
	s.mu.Unlock()
	s.unspoolResults(evicted)

	for _, cc := range subs {
		cc.push(terminal, true)
	}
	if res != nil {
		s.cfg.Logf("server: run %s finished: steps=%d converged=%d hash=%x", r.key, res.Steps, res.ConvergedAt, res.Hash)
	} else {
		s.cfg.Logf("server: run %s failed: %s", r.key, ef.Error())
	}
}

// spoolOutcome writes a finished run's terminal frame to the spool,
// then removes the run's text. Should the write fail the text stays,
// and a restart replays the run to the same outcome.
func (s *Server) spoolOutcome(r *run, terminal wire.Frame) {
	b, err := wire.EncodeFrame(terminal)
	if err == nil {
		err = writeFileAtomic(s.spoolFile(r.key, ".res"), b)
	}
	if err != nil {
		s.cfg.Logf("server: spooling the outcome of %s: %v", r.key, err)
		return
	}
	os.Remove(r.spoolPath)
}

// storeResultLocked records a terminal frame and returns the keys it
// evicted from the bounded table.
func (s *Server) storeResultLocked(key string, res wire.Frame) (evicted []string) {
	if _, ok := s.results[key]; !ok {
		s.order = append(s.order, key)
	}
	s.results[key] = res
	for len(s.order) > maxResults {
		evicted = append(evicted, s.order[0])
		delete(s.results, s.order[0])
		s.order = s.order[1:]
	}
	return evicted
}

// unspoolResults removes evicted outcomes from the spool, so it holds no
// more of them than the results table.
func (s *Server) unspoolResults(keys []string) {
	if s.cfg.SpoolDir == "" {
		return
	}
	for _, key := range keys {
		os.Remove(s.spoolFile(key, ".res"))
	}
}

func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		cc := newClientConn(conn, s.cfg.Logf)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			cc.close()
			continue
		}
		s.conns[cc] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		go s.serveConn(cc)
	}
}

func (s *Server) serveConn(cc *clientConn) {
	defer s.connWG.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, cc)
		s.mu.Unlock()
		cc.close()
	}()
	for {
		b, err := cc.conn.Recv()
		if err != nil {
			return
		}
		f, err := wire.DecodeFrame(b)
		if err != nil {
			cc.push(wire.ErrorFrame{Code: wire.CodeBadRequest, Msg: err.Error()}, true)
			return
		}
		switch f := f.(type) {
		case wire.Submit:
			s.handleSubmit(cc, f)
		case wire.Wait:
			s.handleWait(cc, f)
		default:
			cc.push(wire.ErrorFrame{Code: wire.CodeBadRequest, Msg: fmt.Sprintf("unexpected %T frame", f)}, true)
			return
		}
	}
}

// nameOK constrains tenant and run ids to spool-filename-safe tokens.
func nameOK(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

func (s *Server) handleSubmit(cc *clientConn, f wire.Submit) {
	reject := func(code wire.ErrorCode, msg string) {
		ef := wire.ErrorFrame{ID: f.ID, Code: code, Msg: msg}
		if code.Retriable() {
			ef.RetryAfterMS = s.cfg.RetryAfter.Milliseconds()
		}
		// A reject is a direct reply the client blocks on: must-deliver,
		// so outbox overflow closes the conn instead of dropping it.
		cc.push(ef, true)
	}
	shed := func(reason string, code wire.ErrorCode, msg string) {
		s.met.sheds.With(reason).Inc()
		reject(code, msg)
	}
	if !nameOK(f.Tenant) || !nameOK(f.ID) {
		reject(wire.CodeBadRequest, "tenant and id must be 1-64 chars of [a-zA-Z0-9_-]")
		return
	}

	// Admission gate 1, before parsing anything: the size cap on text
	// from outside the program, and the tenant lookup.
	if len(f.Scenario) > scenario.MaxServiceableBytes {
		reject(wire.CodeBadRequest, fmt.Sprintf("%d-byte scenario exceeds the %d-byte cap", len(f.Scenario), scenario.MaxServiceableBytes))
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		shed(shedDraining, wire.CodeDraining, "server is draining")
		return
	}
	t := s.tenantLocked(f.Tenant)
	if t == nil {
		s.mu.Unlock()
		shed(shedTenants, wire.CodeOverloaded, "tenant table full")
		return
	}
	s.mu.Unlock()

	sc, err := scenario.Parse(f.Scenario)
	if err != nil {
		reject(wire.CodeBadRequest, err.Error())
		return
	}
	if err := scenario.Serviceable(sc); err != nil {
		reject(wire.CodeBadRequest, err.Error())
		return
	}

	// Admission gate 2: the in-flight cap, atomically with reserving the
	// key.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		shed(shedDraining, wire.CodeDraining, "server is draining")
		return
	}
	key := f.Tenant + "/" + f.ID
	if _, ok := s.runs[key]; ok {
		s.mu.Unlock()
		reject(wire.CodeBadRequest, "run id already in flight")
		return
	}
	if _, ok := s.results[key]; ok {
		s.mu.Unlock()
		reject(wire.CodeBadRequest, "run id already completed (Wait for its result)")
		return
	}
	if inflight := t.inflight; inflight >= s.cfg.MaxInFlight {
		s.mu.Unlock()
		shed(shedInFlight, wire.CodeOverloaded, fmt.Sprintf("tenant has %d runs in flight (cap %d)", inflight, s.cfg.MaxInFlight))
		return
	}
	r := &run{tenant: t, id: f.ID, key: key, sc: sc, phase: wire.PhaseQueued, born: time.Now()}
	if f.DeadlineMS > 0 {
		r.deadline = time.Now().Add(time.Duration(f.DeadlineMS) * time.Millisecond)
	}
	s.runs[key] = r
	t.inflight++
	if s.cfg.SpoolDir != "" {
		// The text reaches the spool before the run can start or be
		// acknowledged, so no admitted run is lost to process death.
		r.spoolPath = s.spoolFile(key, ".scn")
		s.mu.Unlock()
		err := writeFileAtomic(r.spoolPath, f.Scenario)
		s.mu.Lock()
		if err != nil {
			delete(s.runs, key)
			t.inflight--
			subs := append(r.subs, cc)
			r.subs = nil
			s.mu.Unlock()
			ef := wire.ErrorFrame{ID: f.ID, Code: wire.CodeInternal, Msg: "spooling the scenario: " + err.Error()}
			for _, sub := range subs {
				sub.push(ef, true)
			}
			return
		}
	}
	s.met.admissions.With(f.Tenant).Inc()
	s.met.inflight.With(f.Tenant).Set(float64(t.inflight))
	r.spanLocked("submitted (%d-byte scenario, horizon %d)", len(f.Scenario), sc.Horizon)
	r.spanLocked("admitted (queued)")
	r.subs = append(r.subs, cc)
	s.enqueueLocked(r)
	// Push the admission Status while still holding the lock: a worker
	// cannot dequeue the run (and push its own frames) until we release
	// it, so the client always sees admission before progress.
	cc.push(s.statusLocked(r), true)
	s.mu.Unlock()
}

func (s *Server) handleWait(cc *clientConn, f wire.Wait) {
	key := f.Tenant + "/" + f.ID
	s.mu.Lock()
	if res, ok := s.results[key]; ok {
		s.mu.Unlock()
		cc.push(res, true)
		return
	}
	if r, ok := s.runs[key]; ok {
		r.subs = append(r.subs, cc)
		cc.push(s.statusLocked(r), true)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	cc.push(wire.ErrorFrame{ID: f.ID, Code: wire.CodeUnknownRun, Msg: "no such run"}, true)
}

// spoolFile is the spool path of a run's entry. The separator is
// outside the nameOK charset, so the (tenant, id) pair reconstructs
// unambiguously on recovery.
func (s *Server) spoolFile(key, ext string) string {
	return filepath.Join(s.cfg.SpoolDir, strings.Replace(key, "/", "~", 1)+ext)
}

// writeFileAtomic writes via a temp file + rename, so process death
// mid-write never leaves a torn spool entry for recovery to trip on;
// recovery removes the orphaned temp file.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// recoverSpool loads the spool: stored outcomes are served again, and
// every run whose text is there without an outcome is re-admitted and
// replayed from step 0. Corrupt entries are skipped with a log line, not
// fatal — a daemon must come up.
func (s *Server) recoverSpool() error {
	if err := os.MkdirAll(s.cfg.SpoolDir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(s.cfg.SpoolDir)
	if err != nil {
		return err
	}
	// Outcomes load first, so a text whose run already finished is
	// removed rather than replayed.
	var texts []string
	for _, e := range entries {
		name := e.Name()
		ext := filepath.Ext(name)
		path := filepath.Join(s.cfg.SpoolDir, name)
		if e.IsDir() || (ext != ".tmp" && ext != ".res" && ext != ".scn" && ext != ".ckpt") {
			continue
		}
		if ext == ".tmp" {
			s.cfg.Logf("server: spool: removing %q, a write cut short", name)
			os.Remove(path)
			continue
		}
		key, ok := spoolKey(name)
		if !ok {
			s.cfg.Logf("server: spool: skipping unparseable name %q", name)
			continue
		}
		if ext != ".res" {
			texts = append(texts, name)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			s.cfg.Logf("server: spool: reading %q: %v", name, err)
			continue
		}
		f, err := wire.DecodeFrame(data)
		if err != nil {
			s.cfg.Logf("server: spool: %q does not decode: %v", name, err)
			continue
		}
		switch f.(type) {
		case wire.Result, wire.ErrorFrame:
			s.unspoolResults(s.storeResultLocked(key, f))
		default:
			s.cfg.Logf("server: spool: %q is not a terminal frame", name)
		}
	}
	for _, name := range texts {
		key, _ := spoolKey(name)
		path := filepath.Join(s.cfg.SpoolDir, name)
		if _, done := s.results[key]; done {
			s.cfg.Logf("server: spool: %s already finished, removing %q", key, name)
			os.Remove(path)
			continue
		}
		if _, dup := s.runs[key]; dup {
			s.cfg.Logf("server: spool: duplicate run %q", key)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			s.cfg.Logf("server: spool: reading %q: %v", name, err)
			continue
		}
		sc, err := spooledScenario(data, filepath.Ext(name))
		if err != nil {
			s.cfg.Logf("server: spool: %q does not parse: %v", name, err)
			continue
		}
		tn, id, _ := strings.Cut(key, "/")
		t := s.tenantLocked(tn)
		if t == nil {
			s.cfg.Logf("server: spool: tenant table full, leaving %q for the next restart", name)
			continue
		}
		r := &run{
			tenant: t, id: id, key: key, sc: sc, spoolPath: path, resumed: true,
			phase: wire.PhaseQueued, born: time.Now(),
		}
		t.inflight++
		s.met.readmits.Inc()
		s.met.inflight.With(tn).Set(float64(t.inflight))
		r.spanLocked("re-admitted from spool (%s), replaying from step 0", name)
		s.runs[key] = r
		s.enqueueLocked(r)
		s.cfg.Logf("server: spool: re-admitted %s (%s)", key, name)
	}
	return nil
}

// spoolKey recovers the run key from a spool entry's name.
func spoolKey(name string) (string, bool) {
	tn, id, ok := strings.Cut(strings.TrimSuffix(name, filepath.Ext(name)), "~")
	return tn + "/" + id, ok && nameOK(tn) && nameOK(id)
}

// spooledScenario reads a spooled run's text: a .scn holds the
// submitted bytes, and a .ckpt — spooled at drain by older daemons —
// embeds them in a checkpoint, which is validated and then only read.
func spooledScenario(data []byte, ext string) (*scenario.Scenario, error) {
	if ext == ".ckpt" {
		rr, err := scenario.ResumeRunner(data)
		if err != nil {
			return nil, err
		}
		defer rr.Close()
		return rr.Scenario(), nil
	}
	sc, err := scenario.Parse(data)
	if err != nil {
		return nil, err
	}
	return sc, scenario.Serviceable(sc)
}

func (s *Server) closeConns() {
	s.mu.Lock()
	conns := make([]*clientConn, 0, len(s.conns))
	for cc := range s.conns {
		conns = append(conns, cc)
	}
	s.mu.Unlock()
	for _, cc := range conns {
		cc.close()
	}
}

// Close stops the server: admission sheds CodeDraining, workers stop at
// their quantum boundary and connections close. Unfinished runs are
// abandoned and their runners released; with a spool their text is
// already there, and a restarted server replays them.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.ln.Close()
	s.closeConns()
	s.workerWG.Wait()
	s.acceptWG.Wait()
	s.connWG.Wait()
	s.mu.Lock()
	for _, r := range s.runs {
		if r.runner != nil {
			r.runner.Close()
			r.runner = nil
		}
	}
	s.mu.Unlock()
	return nil
}

// clientConn wraps one client connection with a bounded, non-blocking
// outbox: a slow or stalled client drops Status frames (they are
// advisory and resent every quantum) rather than stalling a worker; a
// terminal frame that cannot be enqueued closes the connection, and the
// client re-Waits — the table of stored outcomes, failures included,
// makes that safe. Advisory frames may queue only outboxLen deep; the
// outboxHeadroom slots above that are for must-deliver frames, so a
// burst of cheap quanta cannot crowd out the terminal frame that ends
// it and cost the client a reconnect.
type clientConn struct {
	conn *transport.Conn
	logf func(format string, args ...any)

	mu     sync.Mutex
	out    chan []byte
	closed bool
	wg     sync.WaitGroup
}

// outboxLen bounds the advisory frames queued for one connection;
// outboxHeadroom is the room above it that only must-deliver frames use.
const (
	outboxLen      = 64
	outboxHeadroom = 16
)

func newClientConn(conn *transport.Conn, logf func(format string, args ...any)) *clientConn {
	cc := &clientConn{conn: conn, logf: logf, out: make(chan []byte, outboxLen+outboxHeadroom)}
	cc.wg.Add(1)
	go cc.writeLoop()
	return cc
}

func (cc *clientConn) writeLoop() {
	defer cc.wg.Done()
	for b := range cc.out {
		if err := cc.conn.Send(b); err != nil {
			// The reader side will notice and tear the connection down;
			// keep draining the outbox so pushers never block.
			continue
		}
	}
}

// push enqueues a frame. Non-terminal frames are dropped when outboxLen
// frames are already queued; a terminal frame that does not fit even in
// the headroom closes the connection instead of blocking.
func (cc *clientConn) push(f wire.Frame, terminal bool) {
	b, err := wire.EncodeFrame(f)
	if err != nil {
		cc.logf("server: encoding %T frame: %v", f, err)
		return
	}
	cc.mu.Lock()
	if cc.closed || (!terminal && len(cc.out) >= outboxLen) {
		cc.mu.Unlock()
		return
	}
	select {
	case cc.out <- b:
		cc.mu.Unlock()
	default:
		// Full, and f is terminal: advisory frames stopped at outboxLen.
		cc.mu.Unlock()
		cc.close()
	}
}

func (cc *clientConn) close() {
	cc.mu.Lock()
	if cc.closed {
		cc.mu.Unlock()
		return
	}
	cc.closed = true
	close(cc.out)
	cc.mu.Unlock()
	// Flush the queued frames (a just-pushed terminal error must reach
	// the client) under a deadline, so a stuck peer cannot hold the
	// connection open; only then tear the socket down.
	cc.conn.SetWriteDeadline(time.Now().Add(time.Second))
	cc.wg.Wait()
	cc.conn.Close()
}
