package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/wire"
)

// traced is the per-layer pass of a service workload: the closed loop
// with every second cycle under harness spans and the metrics counters
// read on both sides, a replay of the same request that times each
// layer's public calls apart from the server, the codec and loopback
// sections, and (svc_small_n8 only) the open-loop probe.
func (b *svcBench) traced(ctx context.Context, rep *report, o options) {
	m := rep.Metrics
	tr := newTracer()

	before := readCounters()
	t0 := time.Now()
	logs := b.closedLoop(ctx, rep, tr, "t", forSeconds(o.seconds/3, 2))
	wall := time.Since(t0)
	rep.peakRSS()
	d := readCounters().minus(before)
	checkCounters(rep, d, rep.Attempted)
	ops := float64(rep.Attempted)
	plain, lat := pooled(logs)
	if len(plain) == 0 || len(lat) == 0 {
		rep.fail("the traced loop completed no op on one side of the comparison (%d untraced, %d traced)", len(plain), len(lat))
		return
	}
	plainP50 := percentile(msSorted(plain), 0.5)
	p50 := percentile(msSorted(lat), 0.5)
	// The tail figures take every op of the loop, traced or not.
	sorted := msSorted(append(append([]time.Duration(nil), plain...), lat...))
	rep.Samples = len(sorted)
	meanLat := ms(sum(plain)+sum(lat)) / float64(len(plain)+len(lat))

	m["server.admit_ms"] = percentile(msSorted(durations(tr.spans, "server.admit")), 0.5)
	m["server.await_ms"] = percentile(msSorted(durations(tr.spans, "server.await")), 0.5)
	m["server.quanta_per_op"] = d.quanta / ops
	m["server.quantum_busy_ms_per_op"] = d.quantumSec * 1e3 / ops
	m["server.preemptions_per_op"] = d.preemptions / ops
	m["server.sheds_per_op"] = d.sheds / ops
	m["server.latency_p90_ms"] = percentile(sorted, 0.90)
	m["server.latency_p99_ms"] = percentile(sorted, 0.99)
	m["server.latency_max_ms"] = percentile(sorted, 1)
	// Every frame is sent once and received once; count it once.
	m["transport.frames_per_op"] = d.framesSent / ops
	m["transport.bytes_per_op"] = d.bytesSent / ops

	status, result := logs[0].status, logs[0].result
	if status.ID == "" {
		// A run that finishes inside its first quantum is never preempted
		// and pushes no progress Status; time the admission-shaped frame.
		status = wire.Status{ID: result.ID, Phase: wire.PhaseQueued, Horizon: int64(b.sz.horizon)}
	}
	b.replay(rep, tr, status, result)
	b.unsliced(rep)
	b.checkpoints(rep)
	b.codecs(rep, status, result)
	if err := loopback(ctx, rep, result); err != nil {
		rep.fail("transport section: %v", err)
	}

	m["server.residual_ms"] = plainP50 - m["scenario.parse_us"]/1e3 - m["scenario.build_us"]/1e3 -
		m["server.quantum_busy_ms_per_op"] - m["transport.rtt_us"]/1e3

	// The layers' self times in a typical replayed op (the median over
	// ops) against the served request's p50. Advance is taken as served —
	// the daemon's own quantum histogram, a mean — because that is where
	// the request spends it; every other call is taken from the replay.
	// What the sum leaves uncovered is the server's own: queue wait,
	// scheduling, pushes.
	byLayer := map[string]float64{"scenario": m["server.quantum_busy_ms_per_op"]}
	for name, perOp := range selfPerOp(tr.spans) {
		v := median(perOp)
		switch {
		case name == "request" || name == "replay" || layerOf(name) == "server":
			continue
		case name == "scenario.Advance":
			rep.note("replay self time %-22s %9.4f ms/op (as served: %.4f ms/op of quantum busy time)", name, v, m["server.quantum_busy_ms_per_op"])
			continue
		}
		byLayer[layerOf(name)] += v
		rep.note("replay self time %-22s %9.4f ms/op", name, v)
	}
	covered := 0.0
	for layer, v := range byLayer {
		covered += v
		rep.note("layer %-10s %9.4f ms/op = %5.1f%% of the served p50 %.4f ms", layer, v, 100*v/plainP50, plainP50)
	}
	m["trace.coverage"] = covered / plainP50
	m["trace.overhead_share"] = p50/plainP50 - 1
	// Against the loop's mean latency, which carries the tail the p50 does
	// not, the same sum covers less.
	rep.note("layers cover %.4f ms/op: %.1f%% of the served p50 %.4f ms, %.1f%% of the served mean %.4f ms",
		covered, 100*covered/plainP50, plainP50, 100*covered/meanLat, meanLat)

	if b.sz.openLoop {
		b.openLoop(ctx, rep, ops/wall.Seconds()/2, o.seconds/6)
	}
	if o.outDir != "" {
		if path, err := tr.write(o.outDir, o.workload); err != nil {
			rep.note("trace not written: %v", err)
		} else {
			rep.note("spans written to %s", path)
		}
	}
}

// concurrently runs fn once per closed-loop client, at the same time:
// the replay sections keep the served path's concurrency, so a layer's
// time there includes the contention it meets when served.
func concurrently(fn func(g int)) {
	var wg sync.WaitGroup
	for g := 0; g < numClients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(g)
		}()
	}
	wg.Wait()
}

// replay walks requests through the layers' public calls, as many at a
// time as the workload has clients, in the order the served path makes
// them, one span per call: frame codecs, Parse, NewRunner, every
// Advance(quantum), FinalHash, Close, and one loopback echo of the
// result. It fills scenario.*.
func (b *svcBench) replay(rep *report, tr *tracer, status wire.Status, result wire.Result) {
	const quantum = 64 // server.Config's default
	payload, err := wire.EncodeFrame(result)
	if err != nil {
		rep.fail("replay: %v", err)
		return
	}
	var mu sync.Mutex
	n, quanta := 0, 0
	var sliced time.Duration
	concurrently(func(g int) {
		echo, err := newEcho()
		if err != nil {
			mu.Lock()
			rep.fail("replay: loopback: %v", err)
			mu.Unlock()
			return
		}
		defer echo.close()
		for c := 0; c < b.sz.replays; c++ {
			for k := 0; k < cycle; k++ {
				mu.Lock()
				op := rep.Attempted
				rep.Attempted++
				mu.Unlock()
				q, run, err := b.replayOne(tr, op, k, quantum, status, result, payload, echo)
				mu.Lock()
				n++
				quanta += q
				sliced += run
				if err != nil {
					rep.fail("replay seed %d: %v", k, err)
				}
				mu.Unlock()
			}
		}
	})
	if n == 0 {
		return
	}
	m := rep.Metrics
	med := func(name string) time.Duration {
		return time.Duration(percentile(msSorted(durations(tr.spans, name)), 0.5) * 1e6)
	}
	m["scenario.parse_us"] = us(med("scenario.Parse"))
	m["scenario.build_us"] = us(med("scenario.NewRunner"))
	m["scenario.final_hash_us"] = us(med("scenario.FinalHash"))
	m["scenario.advance_ms_per_quantum"] = ms(med("scenario.Advance"))
	m["scenario.quanta_per_op"] = float64(quanta) / float64(n)
	m["scenario.sliced_run_ms"] = ms(sliced) / float64(n)
}

// replayOne is one replayed request; it returns the quanta it took and
// the time spent inside Advance.
func (b *svcBench) replayOne(tr *tracer, op, k, quantum int, status wire.Status, result wire.Result, payload []byte, echo *echoServer) (quanta int, run time.Duration, err error) {
	root := tr.open("replay", 0, op)
	defer tr.close(root)
	timed := func(name string, fn func()) time.Duration {
		id := tr.open(name, root, op)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		tr.close(id)
		return d
	}
	codec := func(name string, f wire.Frame) {
		var enc []byte
		timed("wire.encode_"+name, func() { enc, _ = wire.EncodeFrame(f) })
		timed("wire.decode_"+name, func() { wire.DecodeFrame(enc) })
	}
	codec("submit", wire.Submit{Tenant: "bench0", ID: result.ID, Scenario: b.texts[k]})
	var sc *scenario.Scenario
	var r *scenario.Runner
	timed("scenario.Parse", func() { sc, err = scenario.Parse(b.texts[k]) })
	if err != nil {
		return 0, 0, err
	}
	timed("scenario.NewRunner", func() { r, err = scenario.NewRunner(sc) })
	if err != nil {
		return 0, 0, err
	}
	codec("status", status) // the admission reply
	for done := false; !done; {
		run += timed("scenario.Advance", func() { done, err = r.Advance(quantum) })
		if err != nil {
			r.Close()
			return quanta, run, err
		}
		quanta++
		if !done {
			codec("status", status) // the preemption push
		}
	}
	var hash uint64
	timed("scenario.FinalHash", func() { hash = r.FinalHash() })
	timed("scenario.Close", r.Close)
	codec("result", result)
	timed("transport.echo", func() { err = echo.roundTrip(payload) })
	if err == nil && hash != b.refHash[k] {
		err = fmt.Errorf("sliced hash %016x, unsliced reference %016x", hash, b.refHash[k])
	}
	return quanta, run, err
}

// unsliced runs the same scenarios without preemption, under the same
// concurrency — the engine's own time — and sets the slicing overhead
// beside it; the engine.* counters of a service workload come from
// these runs.
func (b *svcBench) unsliced(rep *report) {
	m := rep.Metrics
	var mu sync.Mutex
	var total time.Duration
	var st engine.Stats
	n := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	concurrently(func(g int) {
		for c := 0; c < b.sz.replays; c++ {
			for k := 0; k < cycle; k++ {
				s, d, err := b.unslicedOne(k)
				mu.Lock()
				rep.Attempted++
				if err != nil {
					rep.fail("unsliced seed %d: %v", k, err)
				} else {
					n++
					total += d
					addStats(&st, s)
				}
				mu.Unlock()
			}
		}
	})
	runtime.ReadMemStats(&after)
	if n == 0 {
		return
	}
	ops := float64(n)
	m["scenario.unsliced_run_ms"] = ms(total) / ops
	m["scenario.slicing_overhead_ms"] = m["scenario.sliced_run_ms"] - m["scenario.unsliced_run_ms"]
	if m["scenario.sliced_run_ms"] > 0 {
		m["scenario.slicing_overhead_share"] = m["scenario.slicing_overhead_ms"] / m["scenario.sliced_run_ms"]
	}
	engineCounters(m, st, ops)
	if st.CellsComputed > 0 {
		m["engine.ns_per_cell"] = float64(total.Nanoseconds()) / float64(st.CellsComputed)
		m["engine.cells_per_s"] = float64(st.CellsComputed) / total.Seconds()
	}
	m["engine.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / ops
	m["engine.alloc_kb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / ops
}

// unslicedOne runs seed k's scenario to its end in one Advance and
// returns the engine's counters and the time inside Advance.
func (b *svcBench) unslicedOne(k int) (engine.Stats, time.Duration, error) {
	sc, err := scenario.Parse(b.texts[k])
	if err != nil {
		return engine.Stats{}, 0, err
	}
	r, err := scenario.NewRunner(sc)
	if err != nil {
		return engine.Stats{}, 0, err
	}
	defer r.Close()
	t0 := time.Now()
	_, err = r.Advance(b.sz.horizon + 1)
	d := time.Since(t0)
	if err != nil {
		return engine.Stats{}, d, err
	}
	if h := r.FinalHash(); h != b.refHash[k] {
		return engine.Stats{}, d, fmt.Errorf("hash %016x, reference %016x", h, b.refHash[k])
	}
	return r.Stats(), d, nil
}

// checkpoints times the drain-time path: encode a run paused after one
// quantum, decode it, and resume a runner from it.
func (b *svcBench) checkpoints(rep *report) {
	var enc, dec, res, size []float64
	for k := 0; k < cycle; k++ {
		err := func() error {
			sc, err := scenario.Parse(b.texts[k])
			if err != nil {
				return err
			}
			r, err := scenario.NewRunner(sc)
			if err != nil {
				return err
			}
			defer r.Close()
			if done, err := r.Advance(64); err != nil || done {
				return fmt.Errorf("first quantum: done=%v err=%v", done, err)
			}
			t0 := time.Now()
			data, err := r.Checkpoint()
			enc = append(enc, us(time.Since(t0)))
			if err != nil {
				return err
			}
			size = append(size, float64(len(data)))
			t0 = time.Now()
			_, err = checkpoint.Decode(wire.NatInfCodec{}, data, "natinf")
			dec = append(dec, us(time.Since(t0)))
			if err != nil {
				return err
			}
			t0 = time.Now()
			r2, err := scenario.ResumeRunner(data)
			res = append(res, us(time.Since(t0)))
			if err != nil {
				return err
			}
			defer r2.Close()
			if _, err := r2.Advance(b.sz.horizon + 1); err != nil {
				return err
			}
			if r2.FinalHash() != b.refHash[k] {
				return fmt.Errorf("resumed hash %016x, reference %016x", r2.FinalHash(), b.refHash[k])
			}
			return nil
		}()
		rep.Attempted++
		if err != nil {
			rep.fail("checkpoint seed %d: %v", k, err)
		}
	}
	m := rep.Metrics
	m["checkpoint.encode_us"] = median(enc)
	m["checkpoint.bytes"] = median(size)
	m["checkpoint.decode_us"] = median(dec)
	m["checkpoint.resume_us"] = median(res)
}

// perCall times fn over batches and returns the median ns per call.
func perCall(fn func()) float64 {
	const batches, per = 15, 400
	var out []float64
	for i := 0; i < batches; i++ {
		t0 := time.Now()
		for j := 0; j < per; j++ {
			fn()
		}
		out = append(out, float64(time.Since(t0).Nanoseconds())/per)
	}
	return median(out)
}

// codecs times EncodeFrame/DecodeFrame on the workload's own frames.
func (b *svcBench) codecs(rep *report, status wire.Status, result wire.Result) {
	m := rep.Metrics
	submit := wire.Submit{Tenant: "bench0", ID: result.ID, Scenario: b.texts[0]}
	subBytes, err1 := wire.EncodeFrame(submit)
	resBytes, err2 := wire.EncodeFrame(result)
	if err1 != nil || err2 != nil {
		rep.fail("wire section: encode: %v %v", err1, err2)
		return
	}
	m["wire.submit_bytes"] = float64(len(subBytes))
	m["wire.result_bytes"] = float64(len(resBytes))
	m["wire.encode_submit_ns"] = perCall(func() { wire.EncodeFrame(submit) })
	m["wire.decode_submit_ns"] = perCall(func() { wire.DecodeFrame(subBytes) })
	m["wire.encode_result_ns"] = perCall(func() { wire.EncodeFrame(result) })
	m["wire.decode_result_ns"] = perCall(func() { wire.DecodeFrame(resBytes) })
	m["wire.encode_status_ns"] = perCall(func() { wire.EncodeFrame(status) })
}

// echoServer answers every frame with the same frame, over the
// transport package's own listener on the host's loopback interface.
type echoServer struct {
	ln   *transport.Listener
	conn *transport.Conn
	wg   sync.WaitGroup
}

func newEcho() (*echoServer, error) {
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoServer{ln: ln}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				defer c.Close()
				for {
					b, err := c.Recv()
					if err != nil || c.Send(b) != nil {
						return
					}
				}
			}()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if e.conn, err = transport.Dial(ctx, ln.Addr().String()); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *echoServer) roundTrip(payload []byte) error {
	if err := e.conn.Send(payload); err != nil {
		return err
	}
	_, err := e.conn.Recv()
	return err
}

// close stops the listener and every echo goroutine, and waits for them.
func (e *echoServer) close() {
	if e.conn != nil {
		e.conn.Close()
	}
	e.ln.Close()
	e.wg.Wait()
}

// loopback times transport.Dial and the round trip of a result-sized
// frame. The traffic crosses the host's loopback interface, not a link.
func loopback(ctx context.Context, rep *report, result wire.Result) error {
	e, err := newEcho()
	if err != nil {
		return err
	}
	defer e.close()
	payload, err := wire.EncodeFrame(result)
	if err != nil {
		return err
	}
	var dial, rtt []float64
	for i := 0; i < 32; i++ {
		t0 := time.Now()
		c, err := transport.Dial(ctx, e.ln.Addr().String())
		dial = append(dial, us(time.Since(t0)))
		if err != nil {
			return err
		}
		c.Close()
	}
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		if err := e.roundTrip(payload); err != nil {
			return err
		}
		rtt = append(rtt, us(time.Since(t0)))
	}
	rep.Metrics["transport.dial_us"] = median(dial)
	rep.Metrics["transport.rtt_us"] = median(rtt)
	rep.note("transport figures are over the host's loopback interface")
	return nil
}

// openLoop offers requests on a fixed schedule at `rate` per second for
// `seconds`, whatever the server does, and times each from the instant
// it was due — so a stall charges every request that queued behind it.
// It is ungated: on this two-core box its percentiles do not repeat
// (bench/README.md gives the numbers).
func (b *svcBench) openLoop(ctx context.Context, rep *report, rate, seconds float64) {
	if rate <= 0 {
		return
	}
	const senders = 8
	total := int(rate * seconds)
	if total < cycle {
		total = cycle
	}
	interval := time.Duration(float64(time.Second) / rate)
	type job struct {
		i   int
		due time.Time
	}
	// One slot per request, so the schedule never waits for a sender.
	jobs := make(chan job, total)
	var mu sync.Mutex
	var lat, late []time.Duration
	var wg sync.WaitGroup
	var clients []*server.Client
	for s := 0; s < senders; s++ {
		cl, err := server.DialClient(ctx, b.srv.Addr(), fmt.Sprintf("open%d", s))
		if err != nil {
			rep.fail("open loop: dial: %v", err)
			break
		}
		clients = append(clients, cl)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				began := time.Now()
				k := j.i % cycle
				mu.Lock()
				op := rep.Attempted
				rep.Attempted++
				mu.Unlock()
				_, _, _, err := b.request(ctx, cl, nil, op, fmt.Sprintf("o-%d", j.i), k)
				done := time.Now()
				mu.Lock()
				if err != nil {
					rep.fail("open loop request %d: %v", j.i, err)
				} else {
					lat = append(lat, done.Sub(j.due))
					late = append(late, began.Sub(j.due))
				}
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	for i := 0; i < total && len(clients) > 0; i++ {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	for _, cl := range clients {
		cl.Close()
	}
	sorted := msSorted(lat)
	rep.Metrics["server.openloop_p50_ms"] = percentile(sorted, 0.5)
	rep.Metrics["server.openloop_p90_ms"] = percentile(sorted, 0.9)
	rep.Metrics["server.openloop_lateness_p90_ms"] = percentile(msSorted(late), 0.9)
	rep.note("open loop: %d requests offered at %.1f/s over %d connections", total, rate, len(clients))
}
