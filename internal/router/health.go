package router

import (
	"context"
	"time"

	"repro/internal/protocol"
)

// probeFleet probes every shard's /v1/healthz concurrently, each under
// probeTimeout, and folds the answers into one fleet view, up since
// started: FleetOK when every shard answered, FleetDegraded when some
// did, FleetDown when none did.
func (rt *Router) probeFleet(ctx context.Context, started time.Time) protocol.FleetHealth {
	shards := fanOut(rt, func(sh *shard) protocol.ShardHealth {
		out := protocol.ShardHealth{Shard: sh.index, Addr: sh.addr}
		pctx, cancel := context.WithTimeout(ctx, probeTimeout)
		defer cancel()
		h, err := sh.c.Healthz(pctx)
		if err != nil {
			out.Status = protocol.FleetDown
			out.Error = err.Error()
		} else {
			out.Status = h.Status
			out.Health = h
		}
		return out
	})

	healthy := 0
	for _, s := range shards {
		if s.Status == "ok" {
			healthy++
		}
	}
	status := protocol.FleetOK
	switch {
	case healthy == 0:
		status = protocol.FleetDown
	case healthy < len(shards):
		status = protocol.FleetDegraded
	}
	return protocol.FleetHealth{
		Status:        status,
		UptimeSeconds: time.Since(started).Seconds(),
		ShardsTotal:   len(shards),
		ShardsHealthy: healthy,
		Shards:        shards,
	}
}

// storeHealth records the latest fleet observation and logs status
// transitions (ok → degraded → down and back).
func (rt *Router) storeHealth(h *protocol.FleetHealth) {
	rt.healthMu.Lock()
	prev := rt.lastHealth
	rt.lastHealth = h
	rt.healthMu.Unlock()
	if rt.logger != nil && (prev == nil || prev.Status != h.Status) {
		rt.logger.Printf("fleet health: %s (%d/%d shards healthy)",
			h.Status, h.ShardsHealthy, h.ShardsTotal)
	}
}

// poll drives the background health loop until Close.
func (rt *Router) poll() {
	defer close(rt.done)
	ticker := time.NewTicker(rt.healthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
		}
		h := rt.probeFleet(context.Background(), rt.started)
		rt.storeHealth(&h)
	}
}
