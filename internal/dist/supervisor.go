package dist

import (
	"context"
	"time"
)

// Router lifecycle: every crash and recovery is an announced event that
// some caller schedules, so the network runs exactly the timeline it is
// given. A recovered router reboots wiped, as on the other two
// substrates; Theorem 7 is what makes any such restart sound — the
// wiped table is just one more reachable state of the asynchronous
// iteration, and a fair continuation converges back to the same fixed
// point.

// routerCtl is one spawned router goroutine's handle.
type routerCtl struct {
	cancel context.CancelFunc
	done   chan struct{}
}

// spawnLocked starts (or restarts) node i's router under the run
// context. It refuses after shutdown has begun, so a late recovery timer
// cannot leak a goroutine past Run's join. Callers hold mu.
func (nw *Network[R]) spawnLocked(ctx context.Context, i int) {
	if nw.stopped || ctx.Err() != nil {
		return
	}
	rctx, cancel := context.WithCancel(ctx)
	ctl := &routerCtl{cancel: cancel, done: make(chan struct{})}
	nw.ctl[i] = ctl
	nw.allCtls = append(nw.allCtls, ctl)
	nw.r.Down[i] = false
	go func() {
		defer close(ctl.done)
		nw.router(rctx, i)
	}()
}

// CrashNode stops node i's router mid-run and marks it down: a modelled,
// announced crash (the scenario layer's `crash` event). The node stays
// down until RecoverNode brings it back; the run cannot be declared
// quiescent while it is down. No-op before Run or when already down.
func (nw *Network[R]) CrashNode(i int) {
	nw.mu.Lock()
	ctl := nw.ctl[i]
	if ctl == nil || nw.r.Down[i] {
		nw.mu.Unlock()
		return
	}
	nw.r.Down[i] = true
	nw.changed = time.Now()
	nw.mu.Unlock()
	ctl.cancel()
	<-ctl.done
}

// RecoverNode brings a crashed node back: it reboots wiped — identity
// table, invalid receive caches, exactly as RestartNode leaves it — under
// a fresh router goroutine. As on the simulator, recovering a node that
// is not down does nothing; so does a call before Run or after shutdown.
func (nw *Network[R]) RecoverNode(i int) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.runCtx == nil || nw.stopped || !nw.r.Down[i] {
		return
	}
	nw.r.Wipe(i, nil, nil)
	nw.changed = time.Now()
	nw.restarts++
	nw.spawnLocked(nw.runCtx, i)
}
