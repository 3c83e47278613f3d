package server

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sort"
)

// The admin surface: a plain http.Handler the daemon binds on a
// separate address from the frame protocol, so operators curl the
// service without speaking wire frames. Read-only by construction —
// nothing here mutates server state.

// RunInfo is one row of the admin /runs table: an in-flight or recently
// finished run with its span log.
type RunInfo struct {
	Key      string   `json:"key"`
	Tenant   string   `json:"tenant"`
	ID       string   `json:"id"`
	Phase    string   `json:"phase"`
	Step     int64    `json:"step"`
	Horizon  int64    `json:"horizon"`
	Cells    int64    `json:"cells_computed"`
	Resumed  bool     `json:"resumed,omitempty"`
	Finished bool     `json:"finished,omitempty"`
	Outcome  string   `json:"outcome,omitempty"`
	Trace    []string `json:"trace,omitempty"`
}

// maxFinished bounds the ring of completed runs /runs retains, so a
// long-lived daemon's memory is bounded too.
const maxFinished = 64

// recordFinishedLocked appends to the finished ring; call under s.mu.
func (s *Server) recordFinishedLocked(r *run, outcome string) {
	info := RunInfo{
		Key: r.key, Tenant: r.tenant.name, ID: r.id,
		Phase: "finished", Step: int64(r.step), Horizon: int64(r.sc.Horizon),
		Cells: r.cells, Resumed: r.resumed, Finished: true, Outcome: outcome,
		Trace: r.traceLinesLocked(),
	}
	s.finished = append(s.finished, info)
	if len(s.finished) > maxFinished {
		s.finished = s.finished[len(s.finished)-maxFinished:]
	}
}

// Draining reports whether the server has stopped admission (closed) —
// the health signal behind /healthz.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// RunsSnapshot returns the current in-flight runs followed by the
// retained finished runs, each with its rendered span log, sorted for
// stable output (in-flight by key, finished oldest first).
func (s *Server) RunsSnapshot() []RunInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := make([]RunInfo, 0, len(s.runs)+len(s.finished))
	for _, r := range s.runs {
		live = append(live, RunInfo{
			Key: r.key, Tenant: r.tenant.name, ID: r.id,
			Phase: r.phaseLocked().String(), Step: int64(r.step), Horizon: int64(r.sc.Horizon),
			Cells: r.cells, Resumed: r.resumed,
			Trace: r.traceLinesLocked(),
		})
	}
	sort.Slice(live, func(i, j int) bool { return live[i].Key < live[j].Key })
	return append(live, s.finished...)
}

// AdminHandler returns the admin HTTP surface:
//
//	GET /metrics  — Prometheus text exposition of the server's registry
//	GET /healthz  — 200 "ok", or 503 "draining" once admission stops
//	GET /runs     — JSON table of in-flight and recent runs with span logs
//	/debug/pprof/ — the standard Go profiler endpoints
//
// The handler is self-contained (its own mux, nothing on
// http.DefaultServeMux) so the daemon can bind it to a loopback-only
// admin address.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.met.reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("draining\n"))
			return
		}
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /runs", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.RunsSnapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
