package cluster

// The outbox holds victim snapshots waiting for the next gossip
// exchange with the member they are bound for:
//
//   - tombstones of victims the TTL sweep retired here, for the
//     victim's ring successor (the backup-replica holder), so a takeover
//     never resurrects the retired detector;
//   - handbacks: the exact state of a victim a membership change moved
//     away, detached through its shard queue (so every record submitted
//     before the detach is tallied), for the victim's current ring owner.
//
// gossipWith puts a peer's entries on its request ahead of backup
// replicas, and the receiver files them like any replica: a handback
// for a victim it owns seeds under the once-per-ownership-epoch latch.
// An entry leaves the outbox after a complete exchange, and only if no
// newer filing replaced it meanwhile; a failed exchange leaves it for
// the next round, to whichever member then owns the victim. A handback
// whose victim the ring returns here before it ships is seeded here.
//
// Shard workers file entries (the victim-expired hook, the detach
// callback) and end epochs, so the outbox and the latch have their own
// mutex: a worker must never wait on Node.mu, whose holders may be
// blocked on that worker's full queue in SeedVictim. Lock order is
// Node.mu → outbox.mu; nothing waits on a shard queue under outbox.mu.

import (
	"fmt"
	"sync"

	"repro/internal/pipeline"
	"repro/internal/topology"
)

type outboxKey struct {
	victim topology.NodeID
	tomb   bool
}

type outboxEntry struct {
	snap pipeline.VictimSnapshot
	seq  uint64 // filing stamp
}

// shipped names one outbox entry on an in-flight request.
type shipped struct {
	key outboxKey
	seq uint64
}

type outbox struct {
	mu      sync.Mutex
	seq     uint64
	entries map[outboxKey]outboxEntry
	seeded  map[topology.NodeID]bool // seeded this ownership epoch
}

// fileLocked queues snap under k. A newer tombstone replaces an older
// one; a second handback of a victim adds to the first, each covering
// the records tallied between two detaches. Caller holds o.mu.
func (o *outbox) fileLocked(k outboxKey, snap pipeline.VictimSnapshot) {
	o.seq++
	if old, ok := o.entries[k]; ok && !k.tomb {
		old.snap.Alarmed = old.snap.Alarmed || snap.Alarmed
		old.snap.Undecodable += snap.Undecodable
		old.snap.Sources = append(append([]pipeline.SourceCount(nil), old.snap.Sources...), snap.Sources...)
		snap = old.snap
	}
	o.entries[k] = outboxEntry{snap: snap, seq: o.seq}
}

// handbackID is the flight-recorder id both members commit a handback
// under, each deriving it from the shipper's member id, the victim and
// the snapshot's record total, so no id rides the wire.
func handbackID(shipper uint64, snap *pipeline.VictimSnapshot) uint64 {
	total := uint64(snap.Identified() + snap.Undecodable)
	return splitmix64(shipper^splitmix64(uint64(snap.Victim)^splitmix64(total))) | 1<<63
}

// noteRetired is the pipeline's victim-expired hook (a shard worker):
// it files the victim's tombstone and ends its ownership epoch, so a
// later takeover or handback may seed it again.
func (n *Node) noteRetired(snap pipeline.VictimSnapshot) {
	if !snap.Expired || len(n.members.Load().list) == 0 {
		return
	}
	snap.Sources = nil // receivers read only a tombstone's flag
	n.out.mu.Lock()
	n.out.fileLocked(outboxKey{victim: snap.Victim, tomb: true}, snap)
	delete(n.out.seeded, snap.Victim)
	n.out.mu.Unlock()
}

// fileHandback is the DetachVictim callback (a shard worker).
func (n *Node) fileHandback(snap pipeline.VictimSnapshot, ok bool) {
	if !ok {
		return // no state existed; nothing to hand over
	}
	n.out.mu.Lock()
	n.out.fileLocked(outboxKey{victim: snap.Victim}, snap)
	n.out.mu.Unlock()
	n.noteHandback(pipeline.EventVictimDetached, n.self, &snap, fmt.Sprintf("ring=v%d", n.ring.Load().Version()))
}

// reclaimOutbox seeds back the handbacks whose victims the ring has
// returned to this instance (detaching ended the local epoch).
func (n *Node) reclaimOutbox() {
	ring := n.ring.Load()
	n.mu.Lock()
	defer n.mu.Unlock()
	var back []pipeline.VictimSnapshot
	n.out.mu.Lock()
	for k, e := range n.out.entries {
		if !k.tomb && ring.Owner(k.victim) == n.self {
			delete(n.out.entries, k)
			delete(n.out.seeded, k.victim)
			back = append(back, e.snap)
		}
	}
	n.out.mu.Unlock()
	for _, snap := range back {
		n.storeReplicaLocked(ring, snap)
	}
}

// attachOutboxLocked puts the entries bound for pr on a request and
// notes them in pr.inflight. An entry too large for any gossip body
// becomes a local stored replica, counted and journaled. Caller holds
// n.mu.
func (n *Node) attachOutboxLocked(pr *peer, m *gossipMsg, budget *gossipBudget) {
	pr.inflight = pr.inflight[:0]
	ring := n.ring.Load()
	var oversize []pipeline.VictimSnapshot
	n.out.mu.Lock()
	for k, e := range n.out.entries {
		dest := ring.Owner(k.victim)
		if k.tomb {
			dest = ring.Successor(k.victim)
		}
		switch {
		case dest != pr.id:
		case budget.oversize(&e.snap):
			delete(n.out.entries, k)
			oversize = append(oversize, e.snap)
		case budget.fitsReplica(&e.snap):
			m.Replicas = append(m.Replicas, e.snap)
			pr.inflight = append(pr.inflight, shipped{key: k, seq: e.seq})
		}
	}
	n.out.mu.Unlock()
	for i := range oversize {
		n.replicaOversize.Add(1)
		n.storeReplicaLocked(ring, oversize[i])
		n.noteHandback(pipeline.EventReplicaOversize, n.self, &oversize[i],
			fmt.Sprintf("to=%x sources=%d ring=v%d", pr.id, len(oversize[i].Sources), ring.Version()))
	}
}

// clearShipped drops the entries pr's completed exchange delivered,
// unless a newer filing replaced one in flight, and counts the
// handbacks among them as shipped.
func (n *Node) clearShipped(pr *peer) {
	var sent []pipeline.VictimSnapshot
	n.out.mu.Lock()
	for _, s := range pr.inflight {
		if e, ok := n.out.entries[s.key]; ok && e.seq == s.seq {
			delete(n.out.entries, s.key)
			if !s.key.tomb {
				sent = append(sent, e.snap)
			}
		}
	}
	n.out.mu.Unlock()
	pr.inflight = pr.inflight[:0]
	for i := range sent {
		n.handbacksOut.Add(1)
		n.noteHandback(pipeline.EventHandbackShip, n.self, &sent[i],
			fmt.Sprintf("to=%x ring=v%d", pr.id, n.ring.Load().Version()))
	}
}

// noteHandback records one handback step in the flight recorder, under
// the id both members derive, and in the journal.
func (n *Node) noteHandback(ev string, shipper uint64, snap *pipeline.VictimSnapshot, detail string) {
	now := n.cfg.Now()
	if fr := n.p.Recorder(); fr != nil {
		fr.CommitEventWithID(handbackID(shipper, snap), pipeline.OutcomeHandback, now, int64(snap.Victim))
	}
	if j := n.p.Journal(); j != nil {
		j.Emit(pipeline.Event{
			T: now, Type: ev, Victim: int64(snap.Victim), Source: -1,
			Count: snap.Identified(), Detail: detail,
		})
	}
}
