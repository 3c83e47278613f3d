package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/wire"
)

// numClients is the closed-loop client count of both service workloads:
// one per default server worker, so no request queues behind another and
// the latency distribution stays unimodal. It never exceeds the box's
// two cores.
const numClients = 2

// svcSizes fixes a service workload's scenario and op counts.
type svcSizes struct {
	scenario string // scenario text with one %d for the seed
	horizon  int
	warmOps  int  // per client, in set-up
	replays  int  // seed cycles the traced pass replays in-process
	openLoop bool // run the ungated open-loop probe in the traced pass
}

const slicedScenario = `scenario bench-sliced
topo ring %d rip
seed %%d
horizon %d
at %d linkdown 0 1
`

// smallScenario is cmd/loadgen's built-in scenario with the seed opened.
const smallScenario = `scenario loadgen
topo ring 8 rip
seed %d
horizon 300
at 60 linkdown 0 1
at 140 linkup 0 1
at 220 weight 3 2 3
`

func svcSizesFor(workload string, smoke bool) svcSizes {
	sliced := workload == "svc_sliced_n64"
	switch {
	case sliced && smoke:
		return svcSizes{scenario: fmt.Sprintf(slicedScenario, 16, 512, 500), horizon: 512,
			warmOps: cycle, replays: 1}
	case sliced:
		// The event at step 4000 keeps certification suppressed, so every
		// run lives for all 64 quanta of its 4096-step horizon.
		return svcSizes{scenario: fmt.Sprintf(slicedScenario, 64, 4096, 4000), horizon: 4096,
			warmOps: 6 * cycle, replays: 2}
	case smoke:
		return svcSizes{scenario: smallScenario, horizon: 300,
			warmOps: cycle, replays: 2, openLoop: true}
	default:
		return svcSizes{scenario: smallScenario, horizon: 300,
			warmOps: 640 * cycle, replays: 64, openLoop: true}
	}
}

// svcBench is one in-process daemon with its closed-loop clients and
// the per-seed references every result is held against.
type svcBench struct {
	sz       svcSizes
	texts    [cycle][]byte
	refHash  [cycle]uint64
	refCells [cycle]int64
	srv      *server.Server
	clients  []*server.Client
}

// reference runs one scenario unsliced in-process: the hash a sliced,
// served run of the same text must reproduce.
func reference(text []byte, horizon int) (hash uint64, cells int64, err error) {
	sc, err := scenario.Parse(text)
	if err != nil {
		return 0, 0, err
	}
	r, err := scenario.NewRunner(sc)
	if err != nil {
		return 0, 0, err
	}
	defer r.Close()
	done, err := r.Advance(horizon + 1)
	if err != nil {
		return 0, 0, err
	}
	if !done {
		return 0, 0, fmt.Errorf("unsliced reference stopped at step %d of %d", r.Step(), horizon)
	}
	return r.FinalHash(), int64(r.Stats().CellsComputed), nil
}

// setup is the whole set-up: daemon start, client dial, reference
// hashes, and a fixed warm-up through the served path.
func (b *svcBench) setup(ctx context.Context) error {
	srv, err := server.New(server.Config{})
	if err != nil {
		return err
	}
	b.srv = srv
	for c := 0; c < numClients; c++ {
		cl, err := server.DialClient(ctx, srv.Addr(), fmt.Sprintf("bench%d", c))
		if err != nil {
			return err
		}
		b.clients = append(b.clients, cl)
	}
	for k := range b.texts {
		b.refHash[k], b.refCells[k], err = reference(b.texts[k], b.sz.horizon)
		if err != nil {
			return fmt.Errorf("reference for seed %d: %w", k, err)
		}
	}
	warm := newReport(options{})
	b.closedLoop(ctx, warm, nil, "w", func(ops int, _ time.Time) bool { return ops < b.sz.warmOps })
	if warm.Failed > 0 {
		return fmt.Errorf("warm-up: %s", strings.Join(warm.Failures, "; "))
	}
	return nil
}

func (b *svcBench) teardown() {
	for _, cl := range b.clients {
		cl.Close()
	}
	if b.srv != nil {
		b.srv.Close()
	}
}

// request is one served op: Submit, then Await, each under a harness
// span when tracing. The latency runs from the call to the result in
// hand; the oracle runs after the clock stops.
func (b *svcBench) request(ctx context.Context, cl *server.Client, tr *tracer, op int, id string, k int) (time.Duration, wire.Status, wire.Result, error) {
	t0 := time.Now()
	root := tr.open("request", 0, op)
	s := tr.open("server.admit", root, op)
	_, err := cl.Submit(ctx, id, b.texts[k], 0)
	tr.close(s)
	var res wire.Result
	var last wire.Status
	if err == nil {
		s = tr.open("server.await", root, op)
		res, last, err = cl.Await(ctx, id)
		tr.close(s)
	}
	tr.close(root)
	d := time.Since(t0)
	if err != nil {
		return d, last, res, err
	}
	if res.Hash != b.refHash[k] {
		return d, last, res, fmt.Errorf("hash %016x, unsliced reference %016x", res.Hash, b.refHash[k])
	}
	if res.CellsComputed != b.refCells[k] {
		return d, last, res, fmt.Errorf("%d cells, unsliced reference %d", res.CellsComputed, b.refCells[k])
	}
	return d, last, res, nil
}

// clientLog is what one closed-loop client saw: its latencies in order,
// those of traced cycles apart, and the last frames it received.
type clientLog struct {
	lat, traced []time.Duration
	status      wire.Status // the last progress Status of the last op
	result      wire.Result // the last Result
}

// closedLoop runs every client in its own goroutine, each submitting
// its next request only when the previous result is in hand, cycling
// over the seeds; more(ops, begin) is asked at every cycle boundary
// whether to go on. With a tracer, every second cycle runs under
// harness spans. Failed ops are counted in the report, never dropped;
// only correct ops leave a latency.
func (b *svcBench) closedLoop(ctx context.Context, rep *report, tr *tracer, tag string, more func(ops int, begin time.Time) bool) []clientLog {
	logs := make([]clientLog, len(b.clients))
	plan := tr.onOddCycles()
	var mu sync.Mutex
	var wg sync.WaitGroup
	begin := time.Now()
	for c, cl := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lg := &logs[c]
			for ops := 0; more(ops, begin); {
				tr := plan(ops / cycle)
				for k := 0; k < cycle; k++ {
					id := fmt.Sprintf("%s-c%d-%d", tag, c, ops)
					mu.Lock()
					op := rep.Attempted
					rep.Attempted++
					mu.Unlock()
					d, st, res, err := b.request(ctx, cl, tr, op, id, k)
					ops++
					if err != nil {
						mu.Lock()
						rep.fail("client %d run %s: %v", c, id, err)
						mu.Unlock()
						continue
					}
					if tr != nil {
						lg.traced = append(lg.traced, d)
					} else {
						lg.lat = append(lg.lat, d)
					}
					lg.status, lg.result = st, res
				}
			}
		}()
	}
	wg.Wait()
	return logs
}

// forSeconds keeps a client going for `seconds` of wall time, and for
// at least minCycles seed cycles.
func forSeconds(seconds float64, minCycles int) func(int, time.Time) bool {
	return func(ops int, begin time.Time) bool {
		return ops < minCycles*cycle || time.Since(begin).Seconds() < seconds
	}
}

// pooled merges the clients' untraced and traced latencies.
func pooled(logs []clientLog) (plain, traced []time.Duration) {
	for _, lg := range logs {
		plain = append(plain, lg.lat...)
		traced = append(traced, lg.traced...)
	}
	return plain, traced
}

// sumSeries adds up every series of a metric family in a snapshot.
func sumSeries(snap map[string]float64, family string) float64 {
	total := 0.0
	for key, v := range snap {
		if key == family || strings.HasPrefix(key, family+"{") {
			total += v
		}
	}
	return total
}

// counters is the slice of metrics.Default the harness reads around a
// measured phase — the same series an operator scrapes.
type counters struct {
	admissions, sheds, preemptions  float64
	quanta, quantumSec              float64
	framesSent, bytesSent, finished float64
}

func readCounters() counters {
	s := metrics.Default.Snapshot()
	return counters{
		admissions:  sumSeries(s, "dbfsimd_admissions_total"),
		sheds:       sumSeries(s, "dbfsimd_sheds_total"),
		preemptions: sumSeries(s, "dbfsimd_preemptions_total"),
		quanta:      sumSeries(s, "dbfsimd_quantum_seconds_count"),
		quantumSec:  sumSeries(s, "dbfsimd_quantum_seconds_sum"),
		framesSent:  sumSeries(s, "transport_frames_sent_total"),
		bytesSent:   sumSeries(s, "transport_bytes_sent_total"),
		finished:    s[`dbfsimd_runs_finished_total{outcome="ok"}`],
	}
}

func (c counters) minus(o counters) counters {
	return counters{
		c.admissions - o.admissions, c.sheds - o.sheds, c.preemptions - o.preemptions,
		c.quanta - o.quanta, c.quantumSec - o.quantumSec,
		c.framesSent - o.framesSent, c.bytesSent - o.bytesSent, c.finished - o.finished,
	}
}

// checkCounters holds the server's own accounting against the
// harness's: nothing shed, every attempted op admitted and finished.
func checkCounters(rep *report, d counters, attempted int) {
	if d.sheds != 0 {
		rep.fail("server shed %v submissions; the closed loop must never be refused", d.sheds)
	}
	if int(d.admissions) != attempted {
		rep.fail("dbfsimd_admissions_total moved by %v, ops attempted %d", d.admissions, attempted)
	}
	if int(d.finished) != attempted {
		rep.fail("dbfsimd_runs_finished_total{ok} moved by %v, ops attempted %d", d.finished, attempted)
	}
}

func runServiceWorkload(o options) (*report, error) {
	begin := time.Now()
	b := &svcBench{sz: svcSizesFor(o.workload, o.smoke)}
	rep := newReport(o)
	for k := range b.texts {
		b.texts[k] = []byte(fmt.Sprintf(b.sz.scenario, int64(splitmix(o.seed, uint64(k))>>33)))
	}
	// Set-up, the measured phase (or the traced pass's sections, which
	// together stay under it) and a margin for a slow box: whatever
	// happens, the run ends.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(o.seconds*float64(time.Second))+90*time.Second)
	defer cancel()

	defer b.teardown()
	if err := b.setup(ctx); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
	}
	h := fnv.New64a()
	var cells int64
	for k := range b.refHash {
		fmt.Fprintf(h, "%x/%d;", b.refHash[k], b.refCells[k])
		cells += b.refCells[k]
	}
	rep.Digest = fmt.Sprintf("%016x", h.Sum64())
	runtime.GC()

	if o.trace {
		b.traced(ctx, rep, o)
		return rep, nil
	}

	setup := time.Since(begin)
	before := readCounters()
	cpu0, t0 := cpuTime(), time.Now()
	logs := b.closedLoop(ctx, rep, nil, "m", forSeconds(o.seconds, o.minCycles()))
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	checkCounters(rep, readCounters().minus(before), rep.Attempted)

	lat, _ := pooled(logs)
	rep.endToEnd("server", setup, wall, cpu, lat, float64(cells)/cycle)
	return rep, nil
}
