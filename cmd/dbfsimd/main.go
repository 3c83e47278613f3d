// Command dbfsimd is the multi-tenant simulation service daemon: it
// accepts scenario runs over the wire protocol, schedules them fairly
// across tenants with checkpoint preemption, sheds
// overload with retriable typed errors, and drains gracefully on
// SIGTERM — checkpointing every in-flight run to the spool directory so
// a restarted daemon resumes them bit-identically.
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
// (drain-aware), /runs (JSON table with per-run span logs) and the
// net/http/pprof profiler endpoints.
package main

import (
	"context"
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
		spool    = flag.String("spool", "", "spool directory for drain/resume (empty disables graceful drain)")
		inflight = flag.Int("max-inflight", 4, "per-tenant cap on admitted unfinished runs")
		tenants  = flag.Int("max-tenants", 64, "cap on distinct tenants")
		retry    = flag.Duration("retry-after", 200*time.Millisecond, "backoff hint attached to shed load")
		drainFor = flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain may take before giving up")
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
	logf("dbfsimd: %v: draining", sig)

	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if *spool == "" {
		if err := s.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "dbfsimd: close: %v\n", err)
			return 1
		}
		return 0
	}
	spooled, err := s.Drain(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dbfsimd: drain: %v\n", err)
		return 1
	}
	fmt.Printf("dbfsimd: drained, %d runs spooled to %s\n", spooled, *spool)
	return 0
}
