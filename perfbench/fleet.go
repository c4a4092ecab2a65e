package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/pipeline"
	"repro/internal/topology"
)

// blockTTL is `ddpmd serve`'s -block-ttl default. The block instant of
// an entry is its expiry minus this TTL.
const blockTTL = time.Minute

// serveConfig is `ddpmd serve`'s default pipeline configuration, set
// explicitly: pipeline.Config's own defaults differ (SketchAdmit 1,
// QueueLen 1024).
func serveConfig(net topology.Network) pipeline.Config {
	return pipeline.Config{
		Net: net, Shards: 4, QueueLen: 4096,
		CUSUMWindow: detectWindow, CUSUMSlack: 4, CUSUMThreshold: 40,
		EntropyWindow: detectWindow, EntropyDelta: 1.5,
		BlockThreshold: 100, BlockTTL: blockTTL,
		SketchAdmit: sketchAdmit, VictimTTL: 10 * time.Minute,
		TraceBuffer: 4096, TraceSampleN: 64, TraceSlowThreshold: time.Millisecond,
	}
}

// member is one in-process ddpmd instance.
type member struct {
	d    *pipeline.Daemon
	p    *pipeline.Pipeline
	node *cluster.Node // nil for a single instance
	addr string
	id   uint64 // cluster member id
}

// fleet is the daemon under test: one instance, or a cluster whose
// members know each other as static peers (`serve -cluster -peers`).
type fleet struct {
	members []*member
}

// freeAddrs reserves n loopback ports; cluster members must know every
// peer's address before any of them starts.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

func startFleet(n int, topo topology.Network) (*fleet, error) {
	addrs, err := freeAddrs(n)
	if err != nil {
		return nil, err
	}
	f := &fleet{}
	for i, addr := range addrs {
		m := &member{addr: addr, id: cluster.MemberID(addr)}
		cfg := pipeline.ServerConfig{
			Pipeline:   serveConfig(topo),
			TCPAddr:    addr,
			DrainGrace: 250 * time.Millisecond, IdleTimeout: 2 * time.Minute,
		}
		if n > 1 {
			var peers []string
			for j, a := range addrs {
				if j != i {
					peers = append(peers, a)
				}
			}
			cfg.NewCluster = func(p *pipeline.Pipeline) (pipeline.ClusterNode, error) {
				node, err := cluster.New(p, cluster.Config{
					Self: addr, Peers: peers, SketchAdmit: sketchAdmit,
					GossipInterval: 500 * time.Millisecond, VNodes: 64,
				})
				m.node = node
				return node, err
			}
		}
		m.d, err = pipeline.Start(cfg)
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("start member %d: %w", i, err)
		}
		m.p = m.d.Pipeline()
		f.members = append(f.members, m)
	}
	return f, nil
}

// stop drains and shuts every member down; Shutdown returns once the
// member's goroutines have exited.
func (f *fleet) stop() {
	for i, m := range f.members {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := m.d.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: member %d shutdown: %v\n", i, err)
		}
		cancel()
	}
}

// done is the fleet-wide count of records the pipelines have finished
// with; see member.done. Cheap: plain atomic loads, safe in the
// watermark loop.
func (f *fleet) done() uint64 {
	var n uint64
	for _, m := range f.members {
		n += m.done()
	}
	return n
}

// done counts the records this member's pipeline has finished with:
// identified, undecodable, held sketch-only by the admission gate,
// rejected by validation, or shed at a shard queue. Admission replays
// are subtracted because their records were already counted when the
// gate held them.
func (m *member) done() uint64 {
	c := &m.p.C
	// Replayed first: its records' identifications are flushed before
	// it, so the sum never dips below the truth.
	n := -c.SketchReplayed.Load()
	return n + c.Identified.Load() + c.Undecodable.Load() + c.SketchSuppressed.Load() +
		c.SketchDeferred.Load() + c.SchemeUnbuildable.Load() +
		c.TopoMismatch.Load() + c.BadVictim.Load() + c.RejectedClosed.Load() + c.Dropped.Load()
}

// status reads every member's cluster document. It walks victims under
// the shard locks, so it is read only at phase boundaries.
func (f *fleet) status() []cluster.Status {
	var out []cluster.Status
	for _, m := range f.members {
		if m.node != nil {
			out = append(out, m.node.StatusJSON().(cluster.Status))
		}
	}
	return out
}

// waitAlive returns once every member has exchanged gossip with every
// peer, i.e. each sees the full fleet alive.
func (f *fleet) waitAlive(timeout time.Duration) error {
	if len(f.members) == 1 {
		return nil
	}
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for _, st := range f.status() {
			ok = ok && st.Alive == len(f.members)
			for _, ms := range st.Members {
				ok = ok && (ms.Self || ms.LastGossipMs >= 0)
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet not fully alive after %v", timeout)
		}
		sleepNS(int64(2 * time.Millisecond))
	}
}

// owner returns the index of the member owning victim v.
func (f *fleet) owner(v topology.NodeID) int {
	if len(f.members) == 1 {
		return 0
	}
	id := f.members[0].node.Ring().Owner(v)
	for i, m := range f.members {
		if m.id == id {
			return i
		}
	}
	return -1
}

// slabsOutstanding waits briefly for workers to release their last
// slabs and returns how many are still held fleet-wide (the leak check).
func (f *fleet) slabsOutstanding() int64 {
	deadline := time.Now().Add(time.Second)
	for {
		var n int64
		for _, m := range f.members {
			n += m.p.SlabsOutstanding()
		}
		if n == 0 || time.Now().After(deadline) {
			return n
		}
		sleepNS(int64(time.Millisecond))
	}
}
