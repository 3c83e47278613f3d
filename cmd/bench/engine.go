package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"time"

	"repro/internal/algebras"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/policy"
	"repro/internal/topology"
)

// splitmix is the SplitMix64 finaliser: the harness derives every input
// (schedule seeds, scenario seeds) from -seed with it.
func splitmix(seed, k uint64) uint64 {
	z := seed + (k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ringWithChords is the E5 topology: a ring plus a chord from every
// eighth node to the node opposite it.
func ringWithChords[R any](n int, edge func(i, j int, chord bool) core.Edge[R]) *matrix.Adjacency[R] {
	adj := topology.Build[R](topology.Ring(n), func(i, j int) core.Edge[R] { return edge(i, j, false) })
	for i := 0; i < n; i += 8 {
		if j := (i + n/2) % n; j != i {
			adj.SetEdge(i, j, edge(i, j, true))
			adj.SetEdge(j, i, edge(j, i, true))
		}
	}
	return adj
}

func buildDV(n int) (core.Algebra[algebras.NatInf], *matrix.Adjacency[algebras.NatInf], error) {
	alg := algebras.HopCount{Limit: algebras.NatInf(2 * n)}
	adj := ringWithChords(n, func(i, j int, chord bool) core.Edge[algebras.NatInf] {
		if chord {
			return alg.AddEdge(2)
		}
		return alg.AddEdge(1)
	})
	return alg, adj, nil
}

// policyPrograms are Section-7 programs; the grammar can only raise
// local preference, so each is strictly increasing once the path
// extends, and Theorem 7 promises convergence whatever the draw.
var policyPrograms = []string{
	"lp+=1",
	"addc(3); if (comm(3)) { lp+=2 }",
	"prepend(1)",
	"if (comm(3)) { lp+=1 } else { addc(3) }",
	"if (path(0) | path(7)) { lp+=3 }",
	"addc(5); if (comm(3) & !path(2)) { lp+=1 }",
	"id",
	"delc(3); lp+=1",
}

// policyDraw keys the per-edge program draw. It is a constant, not the
// run's seed: a per-seed draw moved cells_per_op by 14% between seeds,
// and the op time with it — more than the schedule seeds do (2%) and
// more than a bound could hold. The seed still reaches every op through
// its schedule.
const policyDraw = 0x5ec7107

func buildPolicy(n int) (core.Algebra[policy.IRoute], *matrix.Adjacency[policy.IRoute], error) {
	progs := make([]policy.Policy, len(policyPrograms))
	for i, src := range policyPrograms {
		p, err := policy.ParsePolicy(src)
		if err != nil {
			return nil, nil, fmt.Errorf("policy program %q: %w", src, err)
		}
		progs[i] = p
	}
	alg := policy.NewInterned(nil)
	adj := ringWithChords(n, func(i, j int, _ bool) core.Edge[policy.IRoute] {
		pick := splitmix(policyDraw, uint64(i)<<20|uint64(j)) % uint64(len(progs))
		return alg.Edge(i, j, progs[pick])
	})
	return alg, adj, nil
}

// engineSizes fixes a workload's instance and op counts.
type engineSizes struct {
	n       int
	warm    int // checked cycles set-up runs after the references
	layerOp int // cycles the traced pass spends per section
}

func engineSizesFor(workload string, smoke bool) engineSizes {
	dv := workload == "engine_dv_n512"
	switch {
	case dv && smoke:
		return engineSizes{n: 96, layerOp: 1}
	case dv:
		return engineSizes{n: 512, layerOp: 1}
	case smoke:
		return engineSizes{n: 32, warm: 1, layerOp: 1}
	default:
		return engineSizes{n: 128, warm: 3, layerOp: 2}
	}
}

// engineBench is one warm engine over one instance plus the per-seed
// references the oracle compares every op against.
type engineBench[R any] struct {
	alg   core.Algebra[R]
	adj   *matrix.Adjacency[R]
	start *matrix.State[R]
	n     int
	seeds [cycle]uint64
	ref   [cycle]engineRef // fixed in set-up
}

type engineRef struct {
	stats  engine.Stats
	digest uint64
}

func (b *engineBench[R]) source(k int) engine.Hashed {
	return engine.Hashed{N: b.n, T: 10 * b.n, Seed: b.seeds[k], MaxGap: 16, MaxStaleness: 8}
}

// stateDigest fingerprints a final state through the algebra's own
// rendering, so it needs no codec and works for every carrier.
func stateDigest[R any](alg core.Algebra[R], x *matrix.State[R]) uint64 {
	h := fnv.New64a()
	x.Each(func(_, _ int, r R) {
		h.Write([]byte(alg.Format(r)))
		h.Write([]byte{0})
	})
	return h.Sum64()
}

// reference runs seed k once in set-up and fixes what every measured op
// of that seed is held against: the run must certify convergence and
// land on a σ-stable state (matrix.IsStable).
func (b *engineBench[R]) reference(eng *engine.Engine[R], k int) error {
	res := eng.Run(b.start, b.source(k))
	if _, ok := res.Converged(); !ok {
		return fmt.Errorf("seed %d: reference run did not certify convergence", k)
	}
	if !matrix.IsStable(b.alg, b.adj, res.Final()) {
		return fmt.Errorf("seed %d: limit is not σ-stable", k)
	}
	b.ref[k] = engineRef{stats: res.Stats(), digest: stateDigest(b.alg, res.Final())}
	return nil
}

// check is the per-op oracle, run outside the op's timed interval: the
// run must certify convergence and repeat the work counters of the
// seed's reference exactly.
func (b *engineBench[R]) check(k int, res *engine.Result[R]) error {
	if _, ok := res.Converged(); !ok {
		return fmt.Errorf("seed %d: run did not certify convergence", k)
	}
	st, want := res.Stats(), b.ref[k].stats
	if st.Steps != want.Steps || st.CellsComputed != want.CellsComputed ||
		st.RowsComputed != want.RowsComputed || st.RowsSkipped != want.RowsSkipped ||
		st.ConvergedAt != want.ConvergedAt {
		return fmt.Errorf("seed %d: work counters %+v differ from the reference run's %+v", k, st, want)
	}
	return nil
}

// cellsPerOp is the mean σ-cell count over one full seed cycle.
func (b *engineBench[R]) cellsPerOp() float64 {
	total := 0
	for _, r := range b.ref {
		total += r.stats.CellsComputed
	}
	return float64(total) / cycle
}

func (b *engineBench[R]) digest() string {
	h := fnv.New64a()
	for _, r := range b.ref {
		fmt.Fprintf(h, "%x/%d/%d;", r.digest, r.stats.CellsComputed, r.stats.ConvergedAt)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// runCycles loops eng.Run over whole seed cycles until `seconds` of wall
// time have passed (at least minCycles), checking every op. With a
// tracer, every second cycle runs under harness spans. It returns the
// latencies of the correct ops in order, untraced and traced apart.
func (b *engineBench[R]) runCycles(eng *engine.Engine[R], rep *report, tr *tracer, seconds float64, minCycles int) (plain, traced []time.Duration) {
	plan := tr.onOddCycles()
	begin := time.Now()
	for c := 0; c < minCycles || time.Since(begin).Seconds() < seconds; c++ {
		tc := plan(c)
		for k := 0; k < cycle; k++ {
			src := b.source(k)
			op := rep.Attempted
			rep.Attempted++
			id := tc.open("engine.Run", 0, op)
			t0 := time.Now()
			res := eng.Run(b.start, src)
			d := time.Since(t0)
			tc.close(id)
			if err := b.check(k, res); err != nil {
				rep.fail("op %d: %v", op, err)
			} else if tc != nil {
				traced = append(traced, d)
			} else {
				plain = append(plain, d)
			}
		}
	}
	return plain, traced
}

// addStats accumulates the work counters the per-layer pass reports.
func addStats(total *engine.Stats, s engine.Stats) {
	total.Steps += s.Steps
	total.RowsComputed += s.RowsComputed
	total.RowsSkipped += s.RowsSkipped
	total.CellsComputed += s.CellsComputed
}

// engineCounters sets the engine.* work counters from the totals of
// `ops` runs.
func engineCounters(m map[string]float64, st engine.Stats, ops float64) {
	m[cellsPerOp] = float64(st.CellsComputed) / ops
	m["engine.steps_per_op"] = float64(st.Steps) / ops
	m["engine.rows_computed_per_op"] = float64(st.RowsComputed) / ops
	m["engine.rows_skipped_per_op"] = float64(st.RowsSkipped) / ops
	if act := st.RowsComputed + st.RowsSkipped; act > 0 {
		m["engine.skip_ratio"] = float64(st.RowsSkipped) / float64(act)
	}
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func runEngineWorkload[R any](o options, build func(n int) (core.Algebra[R], *matrix.Adjacency[R], error)) (*report, error) {
	begin := time.Now()
	sz := engineSizesFor(o.workload, o.smoke)
	rep := newReport(o)
	b := &engineBench[R]{n: sz.n}
	for k := range b.seeds {
		b.seeds[k] = splitmix(o.seed, uint64(k))
	}

	// Set-up: instance build, engine start, one reference run per seed —
	// which fills the run-scratch pool and (for interned carriers) the
	// path table — and a fixed count of checked warm-up cycles that brings
	// a short set-up to seconds, where it can be timed.
	alg, adj, err := build(sz.n)
	if err != nil {
		return nil, err
	}
	b.alg, b.adj, b.start = alg, adj, matrix.Identity(alg, sz.n)
	eng := engine.New(alg, adj, engine.Config{})
	defer eng.Close()
	for k := 0; k < cycle; k++ {
		if err := b.reference(eng, k); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
	}
	warm := newReport(o)
	b.runCycles(eng, warm, nil, 0, sz.warm)
	if warm.Failed > 0 {
		return nil, fmt.Errorf("%s: warm-up: %s", o.workload, strings.Join(warm.Failures, "; "))
	}
	rep.Digest = b.digest()
	runtime.GC()

	if o.trace {
		b.traced(eng, rep, o, sz)
		return rep, nil
	}

	setup := time.Since(begin)
	cpu0, t0 := cpuTime(), time.Now()
	lat, _ := b.runCycles(eng, rep, nil, o.seconds, o.minCycles())
	wall, cpu := time.Since(t0), cpuTime()-cpu0

	rep.endToEnd("engine", setup, wall, cpu, lat, b.cellsPerOp())
	return rep, nil
}

// traced is the per-layer pass of an engine workload: the measured loop
// with every second cycle under harness spans, then the sections that
// isolate one mechanism each (sequential engine, snapshot/restore, the
// dense kernel floor).
func (b *engineBench[R]) traced(eng *engine.Engine[R], rep *report, o options, sz engineSizes) {
	m := rep.Metrics
	tr := newTracer()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain, lat := b.runCycles(eng, rep, tr, o.seconds/4, 2*sz.layerOp)
	runtime.ReadMemStats(&after)
	rep.peakRSS()
	ops := float64(rep.Attempted)

	var st engine.Stats
	for _, r := range b.ref {
		addStats(&st, r.stats)
	}
	engineCounters(m, st, cycle)
	p50 := percentile(msSorted(lat), 0.5)
	// The tail figures take every op of the loop, traced or not: a span
	// costs nothing measurable, and a quarter-length run has few ops.
	sorted := msSorted(append(append([]time.Duration(nil), plain...), lat...))
	if cells := b.cellsPerOp(); cells > 0 && len(lat) > 0 {
		perOp := sum(lat).Seconds() / float64(len(lat))
		m["engine.ns_per_cell"] = perOp * 1e9 / cells
		m["engine.cells_per_s"] = cells / perOp
	}
	m["engine.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / ops
	m["engine.alloc_kb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / ops
	m["engine.latency_p90_ms"] = percentile(sorted, 0.90)
	m["engine.latency_p99_ms"] = percentile(sorted, 0.99)
	m["engine.latency_max_ms"] = percentile(sorted, 1)
	rep.Samples = len(sorted)

	// The same ops on a sequential engine: what the worker pool buys.
	seq := engine.New(b.alg, b.adj, engine.Config{Workers: 1})
	seq.Run(b.start, b.source(0))
	seqPlain, _ := b.runCycles(seq, rep, nil, 0, sz.layerOp)
	seq.Close()
	seqLat := msSorted(seqPlain)
	m["engine.run_ms_workers1"] = percentile(seqLat, 0.5)
	if p50 > 0 {
		m["engine.parallel_speedup"] = percentile(seqLat, 0.5) / p50
	}

	// Snapshot at half the certified run, halt, restore: the cost one
	// preemption adds to a run that is otherwise identical.
	var over []float64
	for k := 0; k < cycle; k += 2 {
		src := b.source(k)
		at := b.ref[k].stats.ConvergedAt / 2
		if at < 1 {
			continue
		}
		t0 := time.Now()
		eng.Run(b.start, src)
		run := time.Since(t0)
		t0 = time.Now()
		_, snap := eng.RunSnapshot(b.start, src, at, true)
		rep.Attempted++
		if snap == nil {
			rep.fail("seed %d: no snapshot at step %d", k, at)
			continue
		}
		res, err := eng.Restore(snap, src)
		both := time.Since(t0)
		if err != nil {
			rep.fail("seed %d: restore: %v", k, err)
			continue
		}
		if got, want := res.Stats().CellsComputed, b.ref[k].stats.CellsComputed; got != want {
			rep.fail("seed %d: restored run computed %d cells, uninterrupted %d", k, got, want)
			continue
		}
		over = append(over, ms(both-run))
	}
	m["engine.snapshot_restore_overhead_ms"] = median(over)

	// One full synchronous round through the sharded kernel: every cell
	// recomputed, no dirty tracking — the floor under ns_per_cell.
	x := b.start.Clone()
	out := matrix.NewState(b.n, b.alg.Invalid())
	var dense []float64
	for i := 0; i < 8; i++ {
		t0 := time.Now()
		eng.SigmaInto(x, out)
		dense = append(dense, float64(time.Since(t0).Nanoseconds())/float64(b.n*b.n))
		x, out = out, x
	}
	m["matrix.dense_ns_per_cell"] = median(dense)
	if m["matrix.dense_ns_per_cell"] > 0 {
		m["matrix.engine_overhead_ratio"] = m["engine.ns_per_cell"] / m["matrix.dense_ns_per_cell"]
	}

	self := selfPerOp(tr.spans)
	if untraced := percentile(msSorted(plain), 0.5); untraced > 0 && len(lat) > 0 {
		m["trace.coverage"] = median(self["engine.Run"]) / untraced
		m["trace.overhead_share"] = p50/untraced - 1
	}
	for name, perOp := range self {
		rep.note("self time %-16s %10.3f ms/op (layer %s)", name, median(perOp), layerOf(name))
	}
	if o.outDir != "" {
		if path, err := tr.write(o.outDir, o.workload); err != nil {
			rep.note("trace not written: %v", err)
		} else {
			rep.note("spans written to %s", path)
		}
	}
}
