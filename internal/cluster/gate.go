package cluster

// Forwarding gate: the cluster-tier use of sketch.Gate for records this
// instance does NOT own. Without it, a scan sweeping millions of
// destination ids against a non-owner turns 1:1 into forwarded frames.
// With it, an unowned destination earns its forward the way an owned
// one earns exact state, and on admission the gate's buffered prefix is
// forwarded ahead of the crossing record (the sketch.Gate replay
// contract). Route runs on every ingest session's goroutine, so the
// gate is one mutex-guarded instance; it only sees unowned records (a
// 1/N slice of traffic) and the critical section is a few hash probes.

import (
	"slices"
	"sync"

	"repro/internal/sketch"
	"repro/internal/topology"
	"repro/internal/wire"
)

// fwGate decides, per unowned record, whether it is forwarded to its
// owner or suppressed (tallied sketch-only). All state is guarded by
// mu; see the package comment for why this is not per-shard.
type fwGate struct {
	mu      sync.Mutex
	ringVer uint64 // ring generation the gate was built under
	gate    *sketch.Gate[wire.Record]

	// admitted maps victims that earned a forward to gate.Decays() at
	// their most recent record, so entries idle for two full decay
	// windows age out instead of pinning the map forever.
	admitted map[topology.NodeID]uint64
}

func newFwGate(admit int) *fwGate {
	return &fwGate{gate: sketch.NewGate[wire.Record](admit), admitted: make(map[topology.NodeID]uint64)}
}

// filter runs one unowned record through the gate. pass reports
// whether the record should be forwarded; replay holds the earlier
// buffered records of a victim admitted by this very record (forward
// them to the owner ahead of rec — rec itself is never in replay);
// admitted reports that this very record crossed the threshold, so the
// caller can emit the admission event exactly once per earn.
func (g *fwGate) filter(ringVer uint64, rec wire.Record) (pass bool, replay []wire.Record, admitted bool) {
	v := rec.Victim
	g.mu.Lock()
	defer g.mu.Unlock()
	if ringVer != g.ringVer {
		// A ring change re-partitions ownership, so counts earned
		// against the old partition say nothing about the new one;
		// restarting clean costs at most one re-earn per hot victim.
		g.ringVer = ringVer
		g.gate.Reset()
		g.admitted = make(map[topology.NodeID]uint64)
	}
	if _, ok := g.admitted[v]; ok {
		g.admitted[v] = g.gate.Decays()
		return true, nil, false
	}
	before := g.gate.Decays()
	ready := g.gate.Offer(uint64(v), rec)
	if d := g.gate.Decays(); d != before {
		for av, at := range g.admitted {
			if d-at >= 2 {
				delete(g.admitted, av)
			}
		}
	}
	if !ready {
		return false, nil, false
	}
	// Clone the prefix: it aliases gate memory that the next Offer, from
	// any goroutine once mu is released, may reuse.
	replay = slices.Clone(g.gate.Admit(uint64(v)))
	g.admitted[v] = g.gate.Decays()
	return true, replay, true
}

// admittedCount reports how many victims currently hold a forwarding
// pass (status/metrics).
func (g *fwGate) admittedCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.admitted)
}
