package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/wire"
)

// runRemote is the -server client mode: it submits a scenario file to a
// running dbfsimd daemon, rides out overload shedding with the daemon's
// retry-after hints, survives a daemon restart mid-wait, and prints the
// run's result — which the restart contract guarantees is bit-identical
// to an uninterrupted run.
func runRemote(addr, scenFile, tenant, runID string, deadline time.Duration) int {
	if scenFile == "" {
		fmt.Fprintln(os.Stderr, "dbfsim: -server needs a -scenario file to submit")
		return 2
	}
	text, err := os.ReadFile(scenFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dbfsim: %v\n", err)
		return 2
	}
	if runID == "" {
		base := scenFile
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		if i := strings.IndexByte(base, '.'); i >= 0 {
			base = base[:i]
		}
		runID = fmt.Sprintf("%s-%d", sanitizeID(base), time.Now().UnixNano()%1_000_000_000)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	c, err := server.DialClient(ctx, addr, tenant)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dbfsim: dialling %s: %v\n", addr, err)
		return 1
	}
	defer c.Close()

	start := time.Now()
	res, sheds, err := c.RunRetry(ctx, runID, text, deadline)
	if err != nil {
		var ef *wire.ErrorFrame
		if errors.As(err, &ef) {
			fmt.Fprintf(os.Stderr, "dbfsim: run %s/%s: %v\n", tenant, runID, ef)
			return 1
		}
		fmt.Fprintf(os.Stderr, "dbfsim: %v\n", err)
		return 1
	}
	fmt.Printf("run %s/%s completed in %v (shed %d times before admission)\n",
		tenant, runID, time.Since(start).Round(time.Millisecond), sheds)
	fmt.Println(scenario.DigestLine(int(res.Steps), int(res.ConvergedAt), int(res.CellsComputed), res.Hash))
	if res.Table != "" {
		fmt.Println(res.Table)
	}
	return 0
}

// sanitizeID maps an arbitrary basename into the daemon's id charset.
func sanitizeID(s string) string {
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('-')
		}
	}
	out := b.String()
	if out == "" {
		out = "run"
	}
	if len(out) > 40 {
		out = out[:40]
	}
	return out
}
