package server

import (
	"encoding/json"
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
func TestAdminSurface(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	reg := metrics.NewRegistry()
	s, err := New(Config{Metrics: reg, Quantum: 16})
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
	res, err := c.Run(ctx, "traced", []byte(longScenario), 0)
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "traced run", res, want)
	c.Close()

	snap := reg.Snapshot()
	if got := snap[`dbfsimd_admissions_total{tenant="acme"}`]; got != 1 {
		t.Fatalf("admissions counter = %v, want 1", got)
	}
	if got := snap[`dbfsimd_runs_finished_total{outcome="ok"}`]; got != 1 {
		t.Fatalf("finished counter = %v, want 1", got)
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
		`dbfsimd_admissions_total{tenant="acme"} 1`,
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
	for _, ev := range []string{"submitted", "admitted (queued)", "scheduled quantum 1", "preempted", "finished:"} {
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
	if _, err := c.Run(ctx, "fits", []byte(shortScenario), 0); err != nil {
		t.Fatalf("well-sized run after the reject: %v", err)
	}
	if got := reg.Snapshot()[`dbfsimd_admissions_total{tenant="big"}`]; got != 1 {
		t.Fatalf("admissions after the well-sized run = %v, want 1", got)
	}
}
