package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Scenario texts for the service tests. The long one keeps working for
// ~500+ engine steps (convergence cannot certify before the last
// event); the short one certifies within a few quanta.
const longScenario = `scenario flap
topo ring 8 rip
seed 5
horizon 600
at 40 linkdown 0 1
at 120 linkup 0 1
at 200 weight 3 2 3
at 320 linkdown 4 5
at 420 linkup 4 5
at 500 restart 2
`

const shortScenario = `scenario tiny
topo ring 4 rip
seed 7
horizon 80
`

const gadgetScenario = `scenario wedge
gadget wedgie
seed 3
horizon 400
at 50 linkdown 3 0
at 150 linkup 3 0
at 250 rank 3 3 2 1 0
at 330 restart 1
`

// uninterruptedRun computes the ground truth a serviced run must
// reproduce bit-identically: one runner, one full-horizon quantum.
func uninterruptedRun(t *testing.T, text string) wire.Result {
	t.Helper()
	sc, err := scenario.Parse([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	r, err := scenario.NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	done, err := r.Advance(sc.Horizon + 1)
	if err != nil || !done {
		t.Fatalf("uninterrupted run: done=%v err=%v", done, err)
	}
	convergedAt, _ := r.Converged()
	st := r.Stats()
	return wire.Result{
		Steps: int64(st.Steps), ConvergedAt: int64(convergedAt),
		CellsComputed: int64(st.CellsComputed), Hash: r.FinalHash(),
		Table: r.FinalTable(),
	}
}

// sameRun asserts bit-identity between a serviced result and the
// uninterrupted ground truth.
func sameRun(t *testing.T, label string, got wire.Result, want wire.Result) {
	t.Helper()
	if got.Hash != want.Hash {
		t.Fatalf("%s: hash %x, uninterrupted %x\ngot table:\n%s\nwant:\n%s",
			label, got.Hash, want.Hash, got.Table, want.Table)
	}
	if got.Steps != want.Steps || got.CellsComputed != want.CellsComputed || got.ConvergedAt != want.ConvergedAt {
		t.Fatalf("%s: counters (steps=%d cells=%d conv=%d), uninterrupted (steps=%d cells=%d conv=%d)",
			label, got.Steps, got.CellsComputed, got.ConvergedAt,
			want.Steps, want.CellsComputed, want.ConvergedAt)
	}
}

// checkGoroutines polls until the goroutine count returns to the
// baseline (plus scheduler slack) or fails with a full stack dump — the
// leak gate for every lifecycle test.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d at start, %d after shutdown\n%s",
				before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// await is what a client goroutine riding Await across a restart reports.
type await struct {
	res wire.Result
	err error
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestServerEndToEnd(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	want := uninterruptedRun(t, shortScenario)
	wantGadget := uninterruptedRun(t, gadgetScenario)

	s, err := New(Config{Workers: 2, Quantum: 25})
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)

	c, err := DialClient(ctx, s.Addr(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(ctx, "r1", []byte(shortScenario), 0)
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "serviced topo run", res, want)

	res, err = c.Run(ctx, "g1", []byte(gadgetScenario), 0)
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "serviced gadget run", res, wantGadget)

	// A completed run's result is queryable after the fact.
	if err := c.send(wire.Wait{Tenant: "acme", ID: "r1"}); err != nil {
		t.Fatal(err)
	}
	f, err := c.recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := f.(wire.Result); !ok || got.Hash != want.Hash {
		t.Fatalf("re-Wait returned %#v, want the stored result", f)
	}

	// Unknown runs are typed, not hangs.
	if err := c.send(wire.Wait{Tenant: "acme", ID: "nope"}); err != nil {
		t.Fatal(err)
	}
	if f, err = c.recv(ctx); err != nil {
		t.Fatal(err)
	}
	if ef, ok := f.(wire.ErrorFrame); !ok || ef.Code != wire.CodeUnknownRun {
		t.Fatalf("wait for unknown run returned %#v", f)
	}

	// Malformed submissions are rejected with CodeBadRequest.
	if _, err := c.Submit(ctx, "bad", []byte("not a scenario"), 0); err == nil {
		t.Fatal("garbage scenario admitted")
	} else if ef := asErrorFrame(t, err); ef.Code != wire.CodeBadRequest {
		t.Fatalf("garbage scenario rejected with %v, want bad-request", ef.Code)
	}

	// Duplicate ids are rejected (r1 completed; resubmission must not
	// silently shadow its stored result).
	if _, err := c.Submit(ctx, "r1", []byte(shortScenario), 0); err == nil {
		t.Fatal("duplicate id admitted")
	} else if ef := asErrorFrame(t, err); ef.Code != wire.CodeBadRequest {
		t.Fatalf("duplicate id rejected with %v", ef.Code)
	}

	// An impossible deadline is enforced as a typed terminal error. The
	// scenario is heavy enough (32 nodes, horizon 4000, certification
	// blocked until a late event) that it cannot finish inside 1ms, so
	// the per-quantum deadline check must fire.
	heavy := "scenario heavy\ntopo ring 32 rip\nseed 9\nhorizon 4000\nat 3900 linkdown 0 1\n"
	if _, err := c.Run(ctx, "late", []byte(heavy), time.Millisecond); err == nil {
		t.Fatal("1ms-deadline run completed")
	} else if ef := asErrorFrame(t, err); ef.Code != wire.CodeDeadline {
		t.Fatalf("deadline run failed with %v, want deadline", ef.Code)
	}

	c.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkGoroutines(t, goroutines)
}

// TestStatusNeverFollowsResult pins the frame order a client reads for
// one run: Status steps never decrease, and nothing about the run
// follows its Result. With two workers and one-step quanta a second
// worker finishes the run right after the first preempts it, so a
// preemption Status pushed outside the server lock would land after the
// Result, and the Wait for the finished id would read that stale Status
// instead of the stored Result.
func TestStatusNeverFollowsResult(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	s, err := New(Config{Workers: 2, Quantum: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	c, err := DialClient(ctx, s.Addr(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("r%d", i)
		if _, err := c.Submit(ctx, id, []byte(shortScenario), 0); err != nil {
			t.Fatal(err)
		}
		var res wire.Result
		for step, done := int64(0), false; !done; {
			f, err := c.recv(ctx)
			if err != nil {
				t.Fatal(err)
			}
			switch f := f.(type) {
			case wire.Status:
				if f.ID != id {
					t.Fatalf("run %s: read a Status for %s, which already finished", id, f.ID)
				}
				if f.Step < step {
					t.Fatalf("run %s: Status step %d after step %d", id, f.Step, step)
				}
				step = f.Step
			case wire.Result:
				if f.ID != id {
					t.Fatalf("run %s: read a Result for %s", id, f.ID)
				}
				res, done = f, true
			default:
				t.Fatalf("run %s: unexpected %#v", id, f)
			}
		}
		if err := c.send(wire.Wait{Tenant: "acme", ID: id}); err != nil {
			t.Fatal(err)
		}
		f, err := c.recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := f.(wire.Result); !ok || got.ID != id || got.Hash != res.Hash {
			t.Fatalf("run %s: Wait after its Result read %#v, want the stored result", id, f)
		}
	}
	c.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkGoroutines(t, goroutines)
}

// TestStatusBurstLeavesRoomForTerminalFrame pins the outbox headroom: a
// stalled reader and a burst of advisory Status frames (far more than
// the outbox holds) must not crowd out the ErrorFrame that ends the run
// — a connection closed on overflow would cost the client a reconnect and
// a re-Wait for the stored outcome.
func TestStatusBurstLeavesRoomForTerminalFrame(t *testing.T) {
	srv, cli := net.Pipe() // unbuffered: nothing drains until cli reads
	cc := newClientConn(transport.NewConn(srv), t.Logf)
	for i := 0; i < 500; i++ {
		cc.push(wire.Status{ID: "r", Phase: wire.PhasePreempted, Step: int64(i)}, false)
	}
	cc.push(wire.ErrorFrame{ID: "r", Code: wire.CodeDeadline, Msg: "late"}, true)
	cc.mu.Lock()
	closed := cc.closed
	cc.mu.Unlock()
	if closed {
		t.Fatal("terminal frame found the outbox full of Status frames and closed the connection")
	}
	conn := transport.NewConn(cli)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		b, err := conn.Recv()
		if err != nil {
			t.Fatalf("connection ended before the ErrorFrame: %v", err)
		}
		f, err := wire.DecodeFrame(b)
		if err != nil {
			t.Fatal(err)
		}
		if ef, ok := f.(wire.ErrorFrame); ok {
			if ef.Code != wire.CodeDeadline {
				t.Fatalf("read %#v, want the deadline error", ef)
			}
			break
		}
	}
	cc.close()
	cli.Close()
}

// TestFailedRunOutcomeSurvivesDroppedConnection: a run that fails is a
// stored outcome like one that finishes. The client's connection drops
// between admission and the deadline failure, so the terminal ErrorFrame
// is pushed at a closed connection (even rounds: the test waits for the
// failure before re-dialling, so only the stored frame can answer) or
// races the re-Wait (odd rounds); either way Await must read the typed
// deadline error exactly once, not re-Wait into unknown-run until its
// context expires.
func TestFailedRunOutcomeSurvivesDroppedConnection(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	s, err := New(Config{Workers: 1, Quantum: 16, Stall: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	c, err := DialClient(ctx, s.Addr(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		id := fmt.Sprintf("late%d", round)
		if _, err := c.Submit(ctx, id, []byte(longScenario), time.Millisecond); err != nil {
			t.Fatal(err)
		}
		c.conn.Close()
		for live := round%2 == 0; live; time.Sleep(time.Millisecond) {
			s.mu.Lock()
			_, live = s.runs["acme/"+id]
			s.mu.Unlock()
		}
		awaitCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		_, _, err := c.Await(awaitCtx, id)
		cancel()
		if err == nil {
			t.Fatalf("round %d: 1ms-deadline run completed", round)
		}
		if ef := asErrorFrame(t, err); ef.Code != wire.CodeDeadline || ef.ID != id {
			t.Fatalf("round %d: Await read %v, want the run's deadline error", round, ef)
		}
		// Once: the next frame on the connection answers the next request.
		if err := c.send(wire.Wait{Tenant: "acme", ID: "nope"}); err != nil {
			t.Fatal(err)
		}
		f, err := c.recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ef, ok := f.(wire.ErrorFrame); !ok || ef.Code != wire.CodeUnknownRun || ef.ID != "nope" {
			t.Fatalf("round %d: frame after the terminal error is %#v, want unknown-run for \"nope\"", round, f)
		}
		// A failed id stays taken, like a completed one.
		if _, err := c.Submit(ctx, id, []byte(shortScenario), 0); err == nil {
			t.Fatalf("round %d: failed run's id admitted again", round)
		} else if ef := asErrorFrame(t, err); ef.Code != wire.CodeBadRequest {
			t.Fatalf("round %d: resubmitted id rejected with %v, want bad-request", round, ef.Code)
		}
	}
	c.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkGoroutines(t, goroutines)
}

func asErrorFrame(t *testing.T, err error) *wire.ErrorFrame {
	t.Helper()
	var ef *wire.ErrorFrame
	if !errors.As(err, &ef) {
		t.Fatalf("error %v (%T) is not a wire.ErrorFrame", err, err)
	}
	return ef
}

// TestOverloadShedsRetriably is the overload acceptance gate: three
// tenants fire 120 concurrent submissions at a server with a tiny
// in-flight cap.
// The excess must be shed promptly with retriable typed errors carrying
// retry-after hints; every admitted run must complete bit-identically;
// nothing may hang, and the goroutine count must return to baseline.
func TestOverloadShedsRetriably(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	want := uninterruptedRun(t, shortScenario)

	s, err := New(Config{
		Workers: 2, Quantum: 40,
		MaxInFlight: 2,
		RetryAfter:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)

	const tenantsN = 3
	const perTenant = 40
	var (
		mu        sync.Mutex
		admitted  int
		shed      int
		completed int
		failures  []string
	)
	var wg sync.WaitGroup
	for ti := 0; ti < tenantsN; ti++ {
		tenant := fmt.Sprintf("tenant%d", ti)
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(tenant string, i int) {
				defer wg.Done()
				fail := func(format string, args ...any) {
					mu.Lock()
					failures = append(failures, fmt.Sprintf(format, args...))
					mu.Unlock()
				}
				c, err := DialClient(ctx, s.Addr(), tenant)
				if err != nil {
					fail("dial: %v", err)
					return
				}
				defer c.Close()
				id := fmt.Sprintf("run%d", i)
				_, err = c.Submit(ctx, id, []byte(shortScenario), 0)
				if err != nil {
					ef, ok := err.(*wire.ErrorFrame)
					if !ok {
						fail("%s/%s: submit failed untypedly: %v", tenant, id, err)
						return
					}
					if !ef.Code.Retriable() {
						fail("%s/%s: shed with non-retriable %v", tenant, id, ef.Code)
						return
					}
					if ef.RetryAfterMS <= 0 {
						fail("%s/%s: retriable shed without a retry-after hint", tenant, id)
						return
					}
					mu.Lock()
					shed++
					mu.Unlock()
					return
				}
				mu.Lock()
				admitted++
				mu.Unlock()
				res, _, err := c.Await(ctx, id)
				if err != nil {
					fail("%s/%s: admitted but did not complete: %v", tenant, id, err)
					return
				}
				if res.Hash != want.Hash || res.Steps != want.Steps {
					fail("%s/%s: hash %x steps %d, want %x/%d", tenant, id, res.Hash, res.Steps, want.Hash, want.Steps)
					return
				}
				mu.Lock()
				completed++
				mu.Unlock()
			}(tenant, i)
		}
	}
	wg.Wait()
	for _, f := range failures {
		t.Error(f)
	}
	if len(failures) > 0 {
		t.FailNow()
	}
	if admitted+shed != tenantsN*perTenant {
		t.Fatalf("admitted %d + shed %d != %d requests", admitted, shed, tenantsN*perTenant)
	}
	if shed == 0 {
		t.Fatal("MaxInFlight=2 never shed under 120 concurrent submissions")
	}
	if admitted < tenantsN {
		t.Fatalf("only %d admissions across %d tenants", admitted, tenantsN)
	}
	if completed != admitted {
		t.Fatalf("%d admitted, %d completed", admitted, completed)
	}
	t.Logf("overload: %d admitted (all completed bit-identically), %d shed retriably", admitted, shed)

	// The well-behaved client rides the shedding: RunRetry resubmits on
	// the server's hint until admitted, so an overloaded-but-patient
	// tenant always gets its answer.
	var rwg sync.WaitGroup
	retried := make([]error, 6)
	totalSheds := make([]int, 6)
	for i := range retried {
		rwg.Add(1)
		go func(i int) {
			defer rwg.Done()
			c, err := DialClient(ctx, s.Addr(), fmt.Sprintf("tenant%d", i%tenantsN))
			if err != nil {
				retried[i] = err
				return
			}
			defer c.Close()
			res, sheds, err := c.RunRetry(ctx, fmt.Sprintf("retry%d", i), []byte(shortScenario), 0)
			totalSheds[i] = sheds
			if err != nil {
				retried[i] = err
				return
			}
			if res.Hash != want.Hash {
				retried[i] = fmt.Errorf("hash %x, want %x", res.Hash, want.Hash)
			}
		}(i)
	}
	rwg.Wait()
	for i, err := range retried {
		if err != nil {
			t.Fatalf("RunRetry client %d: %v", i, err)
		}
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkGoroutines(t, goroutines)
}

// TestPreemptionKeepsLateTenantUnstarved is the fairness acceptance
// gate: with a single worker, a long run from tenant A is mid-flight
// when tenant B submits a short run. Checkpoint preemption must let B
// finish while A is paused (A demonstrably unfinished at B's
// completion), and A must still complete bit-identically afterwards.
func TestPreemptionKeepsLateTenantUnstarved(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	wantLong := uninterruptedRun(t, longScenario)
	wantShort := uninterruptedRun(t, shortScenario)

	// The stall gives each quantum wall-clock weight: the long run (~38
	// quanta) stays mid-flight for ~150ms, long enough to observe.
	s, err := New(Config{Workers: 1, Quantum: 16, Stall: 4 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)

	ca, err := DialClient(ctx, s.Addr(), "slow")
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	if _, err := ca.Submit(ctx, "marathon", []byte(longScenario), 0); err != nil {
		t.Fatal(err)
	}

	// Let the long run get demonstrably under way before B arrives.
	probe, err := DialClient(ctx, s.Addr(), "slow")
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	waitStatus := func() wire.Status {
		t.Helper()
		if err := probe.send(wire.Wait{Tenant: "slow", ID: "marathon"}); err != nil {
			t.Fatal(err)
		}
		for {
			f, err := probe.recv(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st, ok := f.(wire.Status); ok {
				return st
			}
			if _, ok := f.(wire.Result); ok {
				t.Fatal("long run finished before it could be observed mid-flight")
			}
		}
	}
	for waitStatus().Step == 0 {
		time.Sleep(5 * time.Millisecond)
	}

	cb, err := DialClient(ctx, s.Addr(), "late")
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()
	resB, err := cb.Run(ctx, "sprint", []byte(shortScenario), 0)
	if err != nil {
		t.Fatalf("late tenant starved: %v", err)
	}
	sameRun(t, "late tenant's run", resB, wantShort)

	// At B's completion, A must still be in flight — preempted at a
	// quantum boundary, not starved out and not finished.
	st := waitStatus()
	if st.Step <= 0 || st.Step >= int64(wantLong.Steps) {
		t.Fatalf("long run at step %d when the late run finished (want mid-flight, < %d)", st.Step, wantLong.Steps)
	}
	t.Logf("late run finished while the long run was preempted at step %d/%d (phase %s)",
		st.Step, st.Horizon, st.Phase)

	// And the preempted run still completes bit-identically.
	resA, _, err := ca.Await(ctx, "marathon")
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "preempted long run", resA, wantLong)

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkGoroutines(t, goroutines)
}

// TestRestartReplaysBitIdentically is the restart acceptance gate:
// runs are mid-flight when the server closes, and a new server
// process-equivalent takes over the same address and spool. The spool
// already holds both runs' texts; clients riding Await across the
// restart must receive results bit-identical to never-interrupted runs,
// and the spool must end holding their outcomes and no text.
func TestRestartReplaysBitIdentically(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	wantLong := uninterruptedRun(t, longScenario)
	wantGadget := uninterruptedRun(t, gadgetScenario)

	spool := t.TempDir()
	// The stall keeps both runs genuinely mid-flight when the server
	// closes after their first quantum; both have events past step 20.
	s1, err := New(Config{Workers: 2, Quantum: 20, SpoolDir: spool, Stall: 8 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	addr := s1.Addr()
	ctx := testCtx(t)

	// Two tenants, two families, both submitted before the close.
	results := make(map[string]chan await)
	clients := make(map[string]*Client)
	for key, text := range map[string]string{
		"alpha/long": longScenario,
		"beta/wedge": gadgetScenario,
	} {
		tenant, id, _ := splitKey(key)
		c, err := DialClient(ctx, addr, tenant)
		if err != nil {
			t.Fatal(err)
		}
		clients[key] = c
		if _, err := c.Submit(ctx, id, []byte(text), 0); err != nil {
			t.Fatal(err)
		}
		ch := make(chan await, 1)
		results[key] = ch
		go func(c *Client, id string, ch chan await) {
			res, _, err := c.Await(ctx, id)
			ch <- await{res, err}
		}(c, id, ch)
	}

	// Let both runs advance past their first quantum, then close: the
	// kill-mid-run half of the differential.
	for _, key := range []string{"alpha/long", "beta/wedge"} {
		waitQuanta(t, s1, key, 1)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	spoolHolds(t, spool, "alpha~long.scn", "beta~wedge.scn")

	// "Restart": a new server on the same address and spool. Clients are
	// still blocked in Await; their redial loop must carry them across.
	s2, err := New(Config{Addr: addr, Workers: 2, Quantum: 20, SpoolDir: spool})
	if err != nil {
		t.Fatal(err)
	}

	for key, want := range map[string]wire.Result{
		"alpha/long": wantLong,
		"beta/wedge": wantGadget,
	} {
		got := <-results[key]
		if got.err != nil {
			t.Fatalf("%s: await across restart: %v", key, got.err)
		}
		sameRun(t, "replayed "+key, got.res, want)
	}
	for _, c := range clients {
		c.Close()
	}
	// A finished run's outcome replaces its text before it is visible.
	spoolHolds(t, spool, "alpha~long.res", "beta~wedge.res")

	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	checkGoroutines(t, goroutines)
}

// waitQuanta blocks until the run has been scheduled for at least n
// quanta, failing if it finishes first.
func waitQuanta(t *testing.T, s *Server, key string, n int) {
	t.Helper()
	for {
		s.mu.Lock()
		r := s.runs[key]
		var quanta int
		if r != nil {
			quanta = r.quanta
		}
		s.mu.Unlock()
		if r == nil {
			t.Fatalf("%s finished before it could be observed mid-flight", key)
		}
		if quanta >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// spoolHolds asserts the spool directory's exact contents.
func spoolHolds(t *testing.T, spool string, want ...string) {
	t.Helper()
	entries, err := os.ReadDir(spool)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("spool holds %v, want %v", got, want)
	}
}

// copySpool snapshots a live spool directory into a fresh one — what a
// disk holds at the instant a process is killed.
func copySpool(t *testing.T, spool string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(spool)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(spool, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// waitSpooled asks a server for a run's outcome on a fresh connection.
// Unlike Await it does not poll through CodeUnknownRun: a run the
// server does not know fails at once.
func waitSpooled(t *testing.T, ctx context.Context, s *Server, tenant, id string) wire.Result {
	t.Helper()
	c, err := DialClient(ctx, s.Addr(), tenant)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.send(wire.Wait{Tenant: tenant, ID: id}); err != nil {
		t.Fatal(err)
	}
	for {
		f, err := c.recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		switch f := f.(type) {
		case wire.Result:
			return f
		case wire.ErrorFrame:
			t.Fatalf("%s/%s: %v", tenant, id, &f)
		}
	}
}

// TestSpoolIsCompleteAtEveryInstant is the in-process kill -9: the spool
// is copied right after Submit returns, mid-run, and after the Result,
// and a server started over each copy must produce the uninterrupted
// run's result — replaying the first two, serving the stored outcome of
// the third without re-admitting anything.
func TestSpoolIsCompleteAtEveryInstant(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	want := uninterruptedRun(t, longScenario)
	spool := t.TempDir()
	s, err := New(Config{Workers: 1, Quantum: 20, SpoolDir: spool, Stall: 5 * time.Millisecond, Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	c, err := DialClient(ctx, s.Addr(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit(ctx, "long", []byte(longScenario), 0); err != nil {
		t.Fatal(err)
	}
	type instant struct {
		label    string
		spool    string
		readmits float64
	}
	instants := []instant{{"after Submit", copySpool(t, spool), 1}}
	waitQuanta(t, s, "acme/long", 3)
	instants = append(instants, instant{"mid-run", copySpool(t, spool), 1})
	res, _, err := c.Await(ctx, "long")
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "uninterrupted service run", res, want)
	instants = append(instants, instant{"after Result", copySpool(t, spool), 0})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for _, in := range instants {
		reg := metrics.NewRegistry()
		s, err := New(Config{Workers: 1, Quantum: 50, SpoolDir: in.spool, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		sameRun(t, "spool copied "+in.label, waitSpooled(t, ctx, s, "acme", "long"), want)
		if got := reg.Snapshot()["dbfsimd_readmissions_total"]; got != in.readmits {
			t.Fatalf("spool copied %s: %v re-admissions, want %v", in.label, got, in.readmits)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	checkGoroutines(t, goroutines)
}

// TestCrashTimelineDrainedInsideWindow: the daemon serves crash/recover
// timelines. crash-recover.scenario has node 2 down over steps (30, 80);
// the server closes while the run is paused inside that window, a second
// server takes over the same spool, and the still-waiting client must
// read the digest the batch door (scenario.Run, what dbfsim -scenario
// prints) computes for the same text.
func TestCrashTimelineDrainedInsideWindow(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	text, err := os.ReadFile("../../examples/scenarios/crash-recover.scenario")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scenario.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	batch := rep.Substrates[0]
	if !batch.ReferenceOK {
		t.Fatalf("batch run diverged from the reference\n%s", rep)
	}

	spool := t.TempDir()
	// One worker, quanta ending at steps 20, 40, 60: once the second
	// quantum is scheduled, a close stops the run at 40 — or, should this
	// goroutine be held up for a stall or two, at 60 — inside the window.
	s1, err := New(Config{Workers: 1, Quantum: 20, SpoolDir: spool, Stall: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	addr := s1.Addr()
	ctx := testCtx(t)
	c, err := DialClient(ctx, addr, "acme")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit(ctx, "crash", text, 0); err != nil {
		t.Fatalf("the daemon refused a crash timeline: %v", err)
	}
	got := make(chan await, 1)
	go func() {
		res, _, err := c.Await(ctx, "crash")
		got <- await{res, err}
	}()
	waitQuanta(t, s1, "acme/crash", 2)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s1.mu.Lock()
	at := s1.runs["acme/crash"].step
	s1.mu.Unlock()
	if at <= 30 || at >= 80 {
		t.Fatalf("run was stopped at step %d, want inside the crash window (30, 80)", at)
	}

	s2, err := New(Config{Addr: addr, Workers: 1, Quantum: 20, SpoolDir: spool})
	if err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.err != nil {
		t.Fatalf("await across restart: %v", r.err)
	}
	sameRun(t, fmt.Sprintf("crash timeline stopped at step %d", at), r.res, wire.Result{
		Steps: int64(batch.Steps), ConvergedAt: int64(batch.ConvergedAt),
		CellsComputed: int64(batch.Cells), Hash: batch.Hash, Table: batch.FinalTable,
	})
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	checkGoroutines(t, goroutines)
}

func splitKey(key string) (tenant, id string, ok bool) {
	for i := range key {
		if key[i] == '/' {
			return key[:i], key[i+1:], true
		}
	}
	return "", "", false
}

// TestDrainRejectsNewWorkRetriably pins the shutdown-window contract:
// submissions while the server closes are shed with CodeDraining
// (retriable, with a hint), never accepted and never hung.
func TestDrainRejectsNewWorkRetriably(t *testing.T) {
	spool := t.TempDir()
	s, err := New(Config{Workers: 1, Quantum: 10, SpoolDir: spool, Stall: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)

	c, err := DialClient(ctx, s.Addr(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit(ctx, "long", []byte(longScenario), 0); err != nil {
		t.Fatal(err)
	}

	// Start the close concurrently, then race a submission into it on
	// the already-open connection (new dials cannot reach a closing
	// server — the listener closes first — so the CodeDraining contract
	// lives on established conns). The submission must land on one
	// typed, prompt outcome: shed with CodeDraining plus a retry hint, or
	// a dead connection because the close tore it down — never a hang,
	// and never a silent admission into a closing server.
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	// Wait until the closed flag is observably set, so the submission
	// below deterministically lands inside the shutdown window.
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	subCtx, subCancel := context.WithTimeout(ctx, 5*time.Second)
	defer subCancel()
	if _, err := c.Submit(subCtx, "during-drain", []byte(shortScenario), 0); err == nil {
		t.Fatal("a draining server admitted new work")
	} else {
		var ef *wire.ErrorFrame
		if errors.As(err, &ef) {
			if ef.Code != wire.CodeDraining {
				t.Fatalf("drain-window submit rejected with %v, want draining", ef.Code)
			}
			if ef.RetryAfterMS <= 0 {
				t.Fatal("draining shed without a retry-after hint")
			}
		}
		// A non-frame error means the close tore the conn down first:
		// also an acceptable, prompt outcome.
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestSpoolRecoverySkipsCorruptEntries pins daemon-must-come-up: a
// spool polluted with garbage, truncation, alien names and a write cut
// short still yields a serving daemon, with the valid entries replayed —
// a current checkpoint and one an older daemon spooled at drain — and a
// finished run's stored outcome served instead of replayed.
func TestSpoolRecoverySkipsCorruptEntries(t *testing.T) {
	spool := t.TempDir()

	// One valid checkpoint, made by hand.
	sc, err := scenario.Parse([]byte(longScenario))
	if err != nil {
		t.Fatal(err)
	}
	r, err := scenario.NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Advance(50); err != nil {
		t.Fatal(err)
	}
	ckpt, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	v1, err := os.ReadFile("../scenario/testdata/v1/loadgen-ring8.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	wantDone := uninterruptedRun(t, shortScenario)
	wantDone.ID = "done"
	done, err := wire.EncodeFrame(wantDone)
	if err != nil {
		t.Fatal(err)
	}
	writeSpool := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(spool, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeSpool("acme~good.ckpt", ckpt)
	writeSpool("acme~v1.ckpt", v1)
	writeSpool("acme~done.res", done)
	writeSpool("acme~done.scn", []byte(shortScenario))
	writeSpool("acme~torn.ckpt", ckpt[:len(ckpt)/2])
	writeSpool("acme~noise.scn", []byte("not a scenario at all"))
	writeSpool("acme~cut.scn.tmp", []byte(shortScenario[:10]))
	writeSpool("no-separator.ckpt", ckpt)
	writeSpool("acme~unrelated.txt", []byte("ignored extension"))

	want := uninterruptedRun(t, longScenario)
	reg := metrics.NewRegistry()
	s, err := New(Config{Workers: 1, Quantum: 50, SpoolDir: spool, Metrics: reg})
	if err != nil {
		t.Fatalf("a polluted spool kept the daemon down: %v", err)
	}
	ctx := testCtx(t)
	sameRun(t, "recovered run", waitSpooled(t, ctx, s, "acme", "good"), want)
	// TestResumeV1ServiceCheckpoint's digest for the same checkpoint.
	if got := waitSpooled(t, ctx, s, "acme", "v1"); got.Hash != 0xae5be22f5653feb6 {
		t.Fatalf("replayed v1 checkpoint: hash %016x, want ae5be22f5653feb6", got.Hash)
	}
	sameRun(t, "stored outcome", waitSpooled(t, ctx, s, "acme", "done"), wantDone)
	if got := reg.Snapshot()["dbfsimd_readmissions_total"]; got != 2 {
		t.Fatalf("%v re-admissions, want 2 (good, v1)", got)
	}
	for _, gone := range []string{"acme~done.scn", "acme~cut.scn.tmp"} {
		if _, err := os.Stat(filepath.Join(spool, gone)); !os.IsNotExist(err) {
			t.Fatalf("recovery left %s in the spool (stat: %v)", gone, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWireLevelRobustness pins the conn-facing failure modes: a client
// sending garbage gets a typed error and a closed conn, and the server
// survives abrupt disconnects mid-run.
func TestWireLevelRobustness(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	s, err := New(Config{Workers: 1, Quantum: 20})
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)

	// Garbage frame → CodeBadRequest, then the conn closes.
	conn, err := transport.Dial(ctx, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send([]byte{0xff, 0xfe, 0xfd}); err != nil {
		t.Fatal(err)
	}
	b, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	f, err := wire.DecodeFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if ef, ok := f.(wire.ErrorFrame); !ok || ef.Code != wire.CodeBadRequest {
		t.Fatalf("garbage frame answered with %#v", f)
	}
	if _, err := conn.Recv(); err == nil {
		t.Fatal("conn survived a garbage frame")
	}
	conn.Close()

	// A client that submits and vanishes must not wedge the run or the
	// server; the result lands in the results table for a re-Wait.
	c, err := DialClient(ctx, s.Addr(), "flaky")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, "orphan", []byte(shortScenario), 0); err != nil {
		t.Fatal(err)
	}
	c.Close() // vanish mid-run

	want := uninterruptedRun(t, shortScenario)
	c2, err := DialClient(ctx, s.Addr(), "flaky")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.send(wire.Wait{Tenant: "flaky", ID: "orphan"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		fr, err := c2.recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res, ok := fr.(wire.Result); ok {
			sameRun(t, "orphaned run", res, want)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("orphaned run never completed")
		}
		time.Sleep(20 * time.Millisecond)
		if err := c2.send(wire.Wait{Tenant: "flaky", ID: "orphan"}); err != nil {
			t.Fatal(err)
		}
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkGoroutines(t, goroutines)
}

func TestNameValidation(t *testing.T) {
	for name, ok := range map[string]bool{
		"acme":                   true,
		"a-b_C9":                 true,
		"":                       false,
		"a/b":                    false,
		"a~b":                    false,
		"a b":                    false,
		"über":                   false,
		string(make([]byte, 65)): false,
	} {
		if got := nameOK(name); got != ok {
			t.Errorf("nameOK(%q) = %v, want %v", name, got, ok)
		}
	}
}
