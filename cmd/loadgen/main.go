// Command loadgen drives a dbfsimd daemon with sustained multi-tenant
// load and records the service's overload behaviour: how much was
// admitted first try, how much was shed (and how retriable the
// shedding was), completion latency percentiles, and — because every
// request runs the same scenario — whether all completions were
// bit-identical (unique_hashes must be 1).
//
// Usage:
//
//	loadgen -addr 127.0.0.1:7117 -requests 300 -tenants 4 -out BENCH_pr9.json
//	loadgen -self -requests 300           # spawn an in-process daemon
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

// defaultScenario is cheap enough to run hundreds of times and still
// exercises events and both phases of convergence.
const defaultScenario = `scenario loadgen
topo ring 8 rip
seed 11
horizon 300
at 60 linkdown 0 1
at 140 linkup 0 1
at 220 weight 3 2 3
`

type report struct {
	Bench       string `json:"bench"`
	GeneratedAt string `json:"generated_at"`
	Config      struct {
		Addr        string `json:"addr"`
		Requests    int    `json:"requests"`
		Tenants     int    `json:"tenants"`
		Concurrency int    `json:"concurrency"`
		SelfServe   bool   `json:"self_serve"`
		Workers     int    `json:"workers,omitempty"`
		Quantum     int    `json:"quantum,omitempty"`
		MaxInFlight int    `json:"max_inflight,omitempty"`
	} `json:"config"`
	AdmittedFirstTry int                     `json:"admitted_first_try"`
	Sheds            int                     `json:"sheds"`
	Completed        int                     `json:"completed"`
	Failed           int                     `json:"failed"`
	UniqueHashes     int                     `json:"unique_hashes"`
	PerTenant        map[string]*tenantStats `json:"per_tenant"`
	LatencyMS        struct {
		P50 float64 `json:"p50"`
		P95 float64 `json:"p95"`
		P99 float64 `json:"p99"`
		Max float64 `json:"max"`
	} `json:"latency_ms"`
	WallMS        float64 `json:"wall_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
}

type tenantStats struct {
	Completed int `json:"completed"`
	Sheds     int `json:"sheds"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		addr     = flag.String("addr", "", "daemon address (required unless -self)")
		selfSrv  = flag.Bool("self", false, "spawn an in-process daemon instead of dialling one")
		requests = flag.Int("requests", 300, "total runs to submit")
		tenants  = flag.Int("tenants", 4, "distinct tenants to spread the load over")
		conc     = flag.Int("concurrency", 64, "concurrent in-flight requests")
		workers  = flag.Int("workers", 2, "-self: daemon workers")
		quantum  = flag.Int("quantum", 64, "-self: preemption quantum")
		inflight = flag.Int("max-inflight", 4, "-self: per-tenant in-flight cap")
		scenFile = flag.String("scenario", "", "scenario file to submit (default: a built-in ring-8 flap)")
		timeout  = flag.Duration("timeout", 5*time.Minute, "overall deadline")
		out      = flag.String("out", "", "write the JSON report here (default stdout)")
	)
	flag.Parse()

	text := []byte(defaultScenario)
	if *scenFile != "" {
		b, err := os.ReadFile(*scenFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			return 2
		}
		text = b
	}

	target := *addr
	if *selfSrv {
		s, err := server.New(server.Config{
			Workers: *workers, Quantum: *quantum,
			MaxInFlight: *inflight,
			MaxTenants:  *tenants + 1,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			return 1
		}
		defer s.Close()
		target = s.Addr()
	}
	if target == "" {
		fmt.Fprintln(os.Stderr, "loadgen: need -addr or -self")
		return 2
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var (
		mu        sync.Mutex
		admitted  int
		sheds     int
		completed int
		failed    int
		hashes    = map[uint64]int{}
		latencies []float64
		perTenant = map[string]*tenantStats{}
	)
	for ti := 0; ti < *tenants; ti++ {
		perTenant[fmt.Sprintf("tenant%d", ti)] = &tenantStats{}
	}

	start := time.Now()
	sem := make(chan struct{}, *conc)
	var wg sync.WaitGroup
	for i := 0; i < *requests; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			tenant := fmt.Sprintf("tenant%d", i%*tenants)
			c, err := server.DialClient(ctx, target, tenant)
			if err != nil {
				mu.Lock()
				failed++
				mu.Unlock()
				return
			}
			defer c.Close()
			t0 := time.Now()
			res, shed, err := c.RunRetry(ctx, fmt.Sprintf("run%d", i), text, 0)
			lat := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			ts := perTenant[tenant]
			ts.Sheds += shed
			sheds += shed
			if shed == 0 {
				admitted++
			}
			if err != nil {
				failed++
				var ef *wire.ErrorFrame
				if errors.As(err, &ef) {
					fmt.Fprintf(os.Stderr, "loadgen: run%d (%s): %v\n", i, tenant, ef)
				} else {
					fmt.Fprintf(os.Stderr, "loadgen: run%d (%s): %v\n", i, tenant, err)
				}
				return
			}
			completed++
			ts.Completed++
			hashes[res.Hash]++
			latencies = append(latencies, float64(lat.Microseconds())/1000)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	var rep report
	rep.Bench = "pr9-dbfsimd-loadgen"
	rep.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	rep.Config.Addr = target
	rep.Config.Requests = *requests
	rep.Config.Tenants = *tenants
	rep.Config.Concurrency = *conc
	rep.Config.SelfServe = *selfSrv
	if *selfSrv {
		rep.Config.Workers = *workers
		rep.Config.Quantum = *quantum
		rep.Config.MaxInFlight = *inflight
	}
	rep.AdmittedFirstTry = admitted
	rep.Sheds = sheds
	rep.Completed = completed
	rep.Failed = failed
	rep.UniqueHashes = len(hashes)
	rep.PerTenant = perTenant
	sort.Float64s(latencies)
	pct := func(p float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}
	rep.LatencyMS.P50 = pct(0.50)
	rep.LatencyMS.P95 = pct(0.95)
	rep.LatencyMS.P99 = pct(0.99)
	if n := len(latencies); n > 0 {
		rep.LatencyMS.Max = latencies[n-1]
	}
	rep.WallMS = float64(wall.Microseconds()) / 1000
	if wall > 0 {
		rep.ThroughputRPS = float64(completed) / wall.Seconds()
	}

	b, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 1
	}
	b = append(b, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			return 1
		}
	}
	os.Stdout.Write(b)

	if failed > 0 {
		return 1
	}
	if rep.UniqueHashes > 1 {
		fmt.Fprintf(os.Stderr, "loadgen: %d distinct hashes for one scenario — runs diverged\n", rep.UniqueHashes)
		return 1
	}
	return 0
}
