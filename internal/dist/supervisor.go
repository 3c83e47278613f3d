package dist

import (
	"context"
	"time"

	"repro/internal/wire"
)

// The supervisor makes the live runtime self-healing: it keeps per-node
// table snapshots (codec-encoded, the same bytes a checkpoint would
// hold), watches per-router heartbeats against a deadline, and restarts
// a failed router from its last snapshot. Theorem 7 is what makes the
// restart sound — the restored table may be arbitrarily stale, but a
// stale table is just one more reachable state of the asynchronous
// iteration, and a fair continuation converges back to the same fixed
// point.

// routerCtl is one spawned router goroutine's handle.
type routerCtl struct {
	cancel context.CancelFunc
	done   chan struct{}
}

// spawn starts (or restarts) node i's router under the run context. It
// refuses after shutdown has begun, so a late recovery timer cannot leak
// a goroutine past Run's join.
func (nw *Network[R]) spawn(ctx context.Context, i int) {
	rctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	nw.mu.Lock()
	if nw.stopped || ctx.Err() != nil {
		nw.mu.Unlock()
		cancel()
		close(done)
		return
	}
	ctl := &routerCtl{cancel: cancel, done: done}
	nw.ctl[i] = ctl
	nw.allCtls = append(nw.allCtls, ctl)
	nw.down[i] = false
	nw.mu.Unlock()
	nw.beats[i].Store(nw.clock.Load())
	go func() {
		defer close(done)
		nw.router(rctx, i)
	}()
}

// CrashNode stops node i's router mid-run and marks it down: a modelled,
// announced crash (the scenario layer's `crash` event). The node stays
// down — the supervisor leaves intentional crashes alone — until
// RecoverNode brings it back; the run cannot be declared quiescent while
// it is down. No-op before Run or when already down.
func (nw *Network[R]) CrashNode(i int) {
	nw.mu.Lock()
	ctl := nw.ctl[i]
	if ctl == nil || nw.down[i] {
		nw.mu.Unlock()
		return
	}
	nw.down[i] = true
	nw.changed = time.Now()
	nw.mu.Unlock()
	ctl.cancel()
	<-ctl.done
}

// KillNode stops node i's router without marking anything: a silent
// death, indistinguishable from a wedged process. Only the heartbeat
// deadline can notice it — this is the failure-detector path the torture
// tests exercise. No-op before Run.
func (nw *Network[R]) KillNode(i int) {
	nw.mu.Lock()
	ctl := nw.ctl[i]
	nw.mu.Unlock()
	if ctl == nil {
		return
	}
	ctl.cancel()
	<-ctl.done
}

// RecoverNode restarts node i from its last supervisor snapshot: the
// table is restored from the snapshot bytes (stale is fine — Theorem 7
// reconverges it), the receive caches reset to invalid exactly as a
// rebooted process's would, and a fresh router goroutine is spawned. A
// node that crashed before any snapshot was taken falls back to the
// identity row, the plain RestartNode semantics. No-op before Run or
// after shutdown.
func (nw *Network[R]) RecoverNode(i int) {
	nw.mu.Lock()
	if nw.runCtx == nil || nw.stopped {
		nw.mu.Unlock()
		return
	}
	ctx := nw.runCtx
	n := nw.adj.N
	row := make([]R, n)
	restored := false
	if snap := nw.snaps[i]; snap != nil {
		if dec, err := wire.DecodeRow(nw.codec, snap); err == nil && len(dec) == n {
			copy(row, dec)
			restored = true
		}
	}
	if !restored {
		for j := range row {
			row[j] = nw.alg.Invalid()
		}
		row[i] = nw.alg.Trivial()
	}
	nw.state.SetRow(i, row)
	for k := 0; k < n; k++ {
		fresh := make([]R, n)
		for j := range fresh {
			fresh[j] = nw.alg.Invalid()
		}
		nw.recv[i][k] = fresh
	}
	nw.changed = time.Now()
	nw.mu.Unlock()
	nw.runStats.restarts.Add(1)
	mRecoveries.Inc()
	nw.spawn(ctx, i)
}

// supervise is the supervisor loop: snapshot live tables, detect missed
// heartbeat deadlines, and (with AutoHeal) restart detected failures
// from their snapshots.
func (nw *Network[R]) supervise(ctx context.Context) {
	period := nw.cfg.SnapshotEvery
	if hb := nw.cfg.HeartbeatTimeout / 2; hb < period {
		period = hb
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	idle := time.Now() // when the supervisor last finished a round
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			// Heartbeat ages are read off a clock that counts only time the
			// process was seen running: at most one period per round. A
			// tick that arrives late was held up with the rest of the
			// process — a starved box, a stopped process — and every
			// router with it, so the excess says nothing about any router;
			// on the wall clock a stall longer than the deadline marks
			// every healthy router down, and nothing clears a down mark.
			nw.clock.Add(int64(min(time.Since(idle), period)))
			nw.snapshotTables()
			nw.detectFailures(ctx)
			idle = time.Now()
		}
	}
}

// snapshotTables refreshes the per-node snapshot store with every live
// node's current table, encoded through the run's codec — the same bytes
// an advert carries, so a restart replays exactly what a peer (or a
// checkpoint file) would have seen.
func (nw *Network[R]) snapshotTables() {
	nw.mu.Lock()
	n := nw.adj.N
	rows := make([][]R, 0, n)
	idx := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !nw.down[i] {
			rows = append(rows, nw.state.Row(i))
			idx = append(idx, i)
		}
	}
	nw.mu.Unlock()
	for x, row := range rows {
		enc, err := wire.EncodeRow(nw.codec, row)
		if err != nil {
			continue
		}
		nw.mu.Lock()
		nw.snaps[idx[x]] = enc
		nw.mu.Unlock()
	}
}

// detectFailures applies the deadline failure detector: a router that is
// supposed to be alive but has not beaten within HeartbeatTimeout on the
// supervisor's clock is declared crashed. With AutoHeal it is immediately
// restarted from its snapshot; otherwise it is marked down and the outcome
// will classify the run as partitioned.
func (nw *Network[R]) detectFailures(ctx context.Context) {
	now := nw.clock.Load()
	n := nw.adj.N
	for i := 0; i < n; i++ {
		nw.mu.Lock()
		alive := nw.ctl[i] != nil && !nw.down[i]
		nw.mu.Unlock()
		if !alive || now-nw.beats[i].Load() <= int64(nw.cfg.HeartbeatTimeout) {
			continue
		}
		nw.runStats.crashes.Add(1)
		mHeartbeatMisses.Inc()
		mCrashes.Inc()
		// Tear the stale router down (idempotent if it is already dead);
		// a truly wedged goroutine is abandoned after a grace period
		// rather than wedging the supervisor with it.
		nw.mu.Lock()
		ctl := nw.ctl[i]
		nw.down[i] = true
		nw.changed = time.Now()
		nw.mu.Unlock()
		ctl.cancel()
		select {
		case <-ctl.done:
		case <-time.After(nw.cfg.HeartbeatTimeout):
		}
		if nw.cfg.AutoHeal && ctx.Err() == nil {
			nw.RecoverNode(i)
		}
	}
}
