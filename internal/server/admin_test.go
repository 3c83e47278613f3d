package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/wire"
)

// adminGet serves one request against the handler and returns the
// response recorder.
func adminGet(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.AdminHandler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// TestAdminSurface drives the full observability loop end to end: runs
// flow through the service while /healthz, /metrics and /runs report
// them, counters agree with what the clients saw, and span logs record
// the lifecycle from admission to completion — then closing flips health.
// One worker serves two runs of one tenant, so the traced run really
// yields the worker at a boundary: a lone run keeps it.
func TestAdminSurface(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	reg := metrics.NewRegistry()
	// The stall holds the traced run's ~38 quanta mid-flight for far
	// longer than the second submission takes to arrive.
	s, err := New(Config{Metrics: reg, Workers: 1, Quantum: 16, Stall: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)

	if rec := adminGet(t, s, "/healthz"); rec.Code != 200 || rec.Body.String() != "ok\n" {
		t.Fatalf("healthz before close: %d %q", rec.Code, rec.Body.String())
	}

	c, err := DialClient(ctx, s.Addr(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	want := uninterruptedRun(t, longScenario)
	wantShort := uninterruptedRun(t, shortScenario)
	if _, err := c.Submit(ctx, "traced", []byte(longScenario), 0); err != nil {
		t.Fatal(err)
	}
	c2, err := DialClient(ctx, s.Addr(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	res, err := submitAwait(ctx, c2, "behind", shortScenario, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "run queued behind it", res, wantShort)
	c2.Close()
	res, _, err = c.Await(ctx, "traced")
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "traced run", res, want)
	c.Close()

	snap := reg.Snapshot()
	if got := snap[`dbfsimd_admissions_total{tenant="acme"}`]; got != 2 {
		t.Fatalf("admissions counter = %v, want 2", got)
	}
	if got := snap[`dbfsimd_runs_finished_total{outcome="ok"}`]; got != 2 {
		t.Fatalf("finished counter = %v, want 2", got)
	}
	if got := snap["dbfsimd_quantum_seconds_count"]; got < 2 {
		t.Fatalf("quantum histogram count = %v, want >= 2 (long run spans quanta)", got)
	}
	if got := snap["dbfsimd_preemptions_total"]; got < 1 {
		t.Fatalf("preemptions = %v, want >= 1", got)
	}

	// The exposition page carries the families an operator scrapes.
	page := adminGet(t, s, "/metrics").Body.String()
	for _, series := range []string{
		"# TYPE dbfsimd_admissions_total counter",
		"# TYPE dbfsimd_quantum_seconds histogram",
		`dbfsimd_admissions_total{tenant="acme"} 2`,
	} {
		if !strings.Contains(page, series) {
			t.Fatalf("/metrics lacks %q:\n%s", series, page)
		}
	}

	// /runs retains the finished run with its full span log.
	var runs []RunInfo
	if err := json.Unmarshal(adminGet(t, s, "/runs").Body.Bytes(), &runs); err != nil {
		t.Fatal(err)
	}
	var info *RunInfo
	for i := range runs {
		if runs[i].Key == "acme/traced" {
			info = &runs[i]
		}
	}
	if info == nil {
		t.Fatalf("/runs lacks acme/traced: %+v", runs)
	}
	if !info.Finished || !strings.HasPrefix(info.Outcome, "ok:") {
		t.Fatalf("run not reported finished ok: %+v", info)
	}
	trace := strings.Join(info.Trace, "\n")
	for _, ev := range []string{"submitted", "admitted (queued)", "scheduled quantum 1", "preempted", "kept", "finished:"} {
		if !strings.Contains(trace, ev) {
			t.Fatalf("span log lacks %q:\n%s", ev, trace)
		}
	}

	// Closing flips health; pprof stays wired.
	if rec := adminGet(t, s, "/debug/pprof/cmdline"); rec.Code != 200 {
		t.Fatalf("pprof endpoint: %d", rec.Code)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if rec := adminGet(t, s, "/healthz"); rec.Code != 503 {
		t.Fatalf("healthz after close: %d", rec.Code)
	}
	checkGoroutines(t, goroutines)
}

// TestShedMetrics checks the by-reason shed counters against a client
// driven into each reject path.
func TestShedMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	s, err := New(Config{
		Metrics:     reg,
		MaxInFlight: 1,
		Stall:       20 * time.Millisecond,
		Quantum:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := testCtx(t)

	c, err := DialClient(ctx, s.Addr(), "busy")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit(ctx, "slot", []byte(longScenario), 0); err != nil {
		t.Fatal(err)
	}
	// The single in-flight slot is taken: the next submit sheds.
	if _, err := c.Submit(ctx, "extra", []byte(shortScenario), 0); err == nil {
		t.Fatal("over-cap submit admitted")
	}
	if got := reg.Snapshot()[`dbfsimd_sheds_total{reason="inflight_cap"}`]; got != 1 {
		t.Fatalf("inflight_cap sheds = %v, want 1", got)
	}
}

// TestOversizedScenarioRejectedBeforeAdmission: a submission longer than
// the scenario package's cap is refused with CodeBadRequest at the first
// gate, before parsing — the reject names the cap, not a parse error —
// and no admission is counted; the next well-sized run is admitted.
func TestOversizedScenarioRejectedBeforeAdmission(t *testing.T) {
	reg := metrics.NewRegistry()
	s, err := New(Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := testCtx(t)

	c, err := DialClient(ctx, s.Addr(), "big")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	oversized := shortScenario + strings.Repeat("x", scenario.MaxServiceableBytes)
	if _, err := c.Submit(ctx, "huge", []byte(oversized), 0); err == nil {
		t.Fatal("oversized scenario admitted")
	} else if ef := asErrorFrame(t, err); ef.Code != wire.CodeBadRequest || !strings.Contains(ef.Msg, "cap") {
		t.Fatalf("oversized scenario rejected with %v %q, want bad-request naming the cap", ef.Code, ef.Msg)
	}
	if got := reg.Snapshot()[`dbfsimd_admissions_total{tenant="big"}`]; got != 0 {
		t.Fatalf("admissions after the oversized submit = %v, want 0", got)
	}
	if _, err := submitAwait(ctx, c, "fits", shortScenario, 0); err != nil {
		t.Fatalf("well-sized run after the reject: %v", err)
	}
	if got := reg.Snapshot()[`dbfsimd_admissions_total{tenant="big"}`]; got != 1 {
		t.Fatalf("admissions after the well-sized run = %v, want 1", got)
	}
}

// TestFinishedTraceRenderedOnRead: a finished run keeps its span log, and
// /runs renders it when read — byte for byte the row rendering it at
// finish gave: a log short of its head, one whose middle was elided, and
// an empty one (no trace key at all).
func TestFinishedTraceRenderedOnRead(t *testing.T) {
	sc, err := scenario.Parse([]byte("scenario traced\ntopo ring 4 rip\nhorizon 50\n"))
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{}
	var atFinish []RunInfo
	for k, spans := range []int{3, maxSpanHead + maxSpanTail + 5, 0} {
		id := fmt.Sprintf("r%d", k)
		r := &run{tenant: &tenant{name: "t"}, id: id, key: "t/" + id, sc: sc,
			step: 40 + k, cells: int64(99 * k), born: time.Now().Add(-time.Duration(k) * time.Second)}
		for q := 0; q < spans; q++ {
			r.spanLocked("quantum %d", q)
		}
		// What recording the run rendered at finish.
		atFinish = append(atFinish, RunInfo{
			Key: r.key, Tenant: r.tenant.name, ID: r.id,
			Phase: "finished", Step: int64(r.step), Horizon: int64(r.sc.Horizon),
			Cells: r.cells, Resumed: r.resumed, Finished: true, Outcome: "ok",
			Trace: r.spans.lines(),
		})
		s.recordFinishedLocked(r, "ok")
	}
	if n := len(atFinish[1].Trace); n != maxSpanHead+1+maxSpanTail {
		t.Fatalf("the long log rendered %d lines, want head, elision and tail", n)
	}
	want, err := json.MarshalIndent(atFinish, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(s.RunsSnapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("/runs rendered on read:\n%s\nat finish:\n%s", got, want)
	}
}
