// Command dbfsimd is the multi-tenant simulation service daemon: it
// accepts scenario runs over the wire protocol, schedules them fairly
// across tenants in preemptible quanta, and sheds overload with
// retriable typed errors. With -spool, every admitted run's text and
// every finished run's outcome is on disk as it happens, so a daemon
// restarted after SIGTERM or kill -9 replays each unfinished run to
// exactly the result the uninterrupted run would have produced.
//
// Usage:
//
//	dbfsimd -addr 127.0.0.1:7117 -spool /var/spool/dbfsimd \
//	        -workers 4 -quantum 64 -max-inflight 4
//
// Submit runs with `dbfsim -server 127.0.0.1:7117 -scenario f.scenario`
// or drive sustained load with the loadgen command.
//
// With -admin set, a second loopback HTTP listener serves the
// observability surface: GET /metrics (Prometheus text), /healthz
// (503 once closing), /runs (JSON table with per-run span logs) and the
// net/http/pprof profiler endpoints.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		addr     = flag.String("addr", "127.0.0.1:7117", "listen address (host:port, :0 picks a free port)")
		workers  = flag.Int("workers", 2, "concurrent run-advancing workers")
		quantum  = flag.Int("quantum", 64, "engine steps per preemption quantum")
		spool    = flag.String("spool", "", "spool directory holding admitted scenario texts and finished outcomes, replayed on restart (empty: runs die with the process)")
		inflight = flag.Int("max-inflight", 4, "per-tenant cap on admitted unfinished runs")
		tenants  = flag.Int("max-tenants", 64, "cap on distinct tenants")
		retry    = flag.Duration("retry-after", 200*time.Millisecond, "backoff hint attached to shed load")
		stall    = flag.Duration("stall", 0, "fault injection: sleep this long after every quantum (holds runs mid-flight for kill/restart drills)")
		quiet    = flag.Bool("quiet", false, "suppress per-event logging")
		admin    = flag.String("admin", "", "admin HTTP address for /metrics, /healthz, /runs and pprof (empty disables)")
	)
	flag.Parse()

	logf := log.New(os.Stderr, "", log.LstdFlags|log.Lmicroseconds).Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	s, err := server.New(server.Config{
		Addr: *addr, Workers: *workers, Quantum: *quantum,
		SpoolDir:    *spool,
		MaxInFlight: *inflight,
		MaxTenants:  *tenants,
		RetryAfter:  *retry,
		Stall:       *stall,
		Logf:        logf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dbfsimd: %v\n", err)
		return 1
	}
	// The bound address goes to stdout so scripts (and the CI smoke job)
	// can scrape it even with :0.
	fmt.Printf("dbfsimd: listening on %s\n", s.Addr())

	if *admin != "" {
		// Engine-level counters ride the same registry the admin page
		// exposes; the observer is one atomic load per completed run.
		server.ObserveEngineRuns(metrics.Default)
		aln, err := net.Listen("tcp", *admin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dbfsimd: admin listen: %v\n", err)
			return 1
		}
		asrv := &http.Server{Handler: s.AdminHandler()}
		go asrv.Serve(aln)
		defer asrv.Close()
		fmt.Printf("dbfsimd: admin on %s\n", aln.Addr())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigc
	logf("dbfsimd: %v: closing", sig)
	if err := s.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "dbfsimd: close: %v\n", err)
		return 1
	}
	return 0
}
