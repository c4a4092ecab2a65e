package cluster

import (
	"errors"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestRecomputeMembershipEqualSizeSwap is the regression test for the
// sweep comparing alive sets only by example when sizes matched: one
// member dying in the same window another joins keeps the count
// constant while changing the membership, and the ring must rebuild.
func TestRecomputeMembershipEqualSizeSwap(t *testing.T) {
	var now atomic.Int64
	addrs := []string{"10.6.0.1:1", "10.6.0.2:1", "10.6.0.3:1"}
	n, _ := newTestNode(t, addrs[0], []string{addrs[1]}, 601, &now)

	if got := n.Ring().Size(); got != 2 {
		t.Fatalf("initial ring size %d, want 2", got)
	}
	// A third member joins at t=0.9s (lastHeard stamped then), while the
	// configured peer stays silent past FailAfter (1s): at the next
	// sweep the alive count is still 2 but the set has swapped.
	now.Store(int64(900 * time.Millisecond))
	if pr := n.addPeer(addrs[2]); pr == nil {
		t.Fatal("addPeer rejected the joiner")
	}
	now.Store(int64(1500 * time.Millisecond))
	n.recomputeMembership()

	ring := n.Ring()
	if ring.Version() != 2 {
		t.Fatalf("ring version %d, want 2 (equal-size membership swap must rebuild)", ring.Version())
	}
	want := []uint64{n.self, MemberID(addrs[2])}
	if want[0] > want[1] {
		want[0], want[1] = want[1], want[0]
	}
	if got := ring.Members(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ring members %v, want %v", got, want)
	}
	if got := n.joins.Load(); got != 1 {
		t.Fatalf("joins counter %d, want 1", got)
	}
}

// TestRuntimeJoinLearnsRoster: a joiner configured with nothing but a
// -join address learns the rest of the fleet from its first gossip
// exchange, and the fleet learns the joiner from its authenticated
// sender address — every node converges on the same three-member ring.
func TestRuntimeJoinLearnsRoster(t *testing.T) {
	var now atomic.Int64
	now.Store(1) // nonzero so lastHeard stamps are meaningful
	addrs := []string{"10.7.0.1:1", "10.7.0.2:1", "10.7.0.3:1"}
	a, _ := newTestNode(t, addrs[0], []string{addrs[1]}, 701, &now)

	pj, err := pipeline.New(pipeline.Config{
		Net: topology.NewTorus2D(8), Shards: 2, QueueLen: 1 << 12,
		BlockThreshold: 1 << 30, BlockTTL: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := New(pj, Config{
		Self: addrs[2], Join: addrs[0],
		GossipInterval: time.Hour, FailAfter: time.Second,
		Incarnation: 703,
		Dial:        func(string) (net.Conn, error) { return nil, errors.New("test: no network") },
		Now:         now.Load,
	})
	if err != nil {
		pj.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		j.Close()
		pj.Close()
	})
	if got := len(j.members.Load().list); got != 1 {
		t.Fatalf("joiner starts knowing %d members, want 1 (the join target)", got)
	}

	// One exchange with the join target: the response roster names the
	// rest of the fleet, and the request's sender address registers the
	// joiner at the target.
	exchange(t, a, j)

	if pr := j.members.Load().byID[MemberID(addrs[1])]; pr == nil {
		t.Fatal("joiner did not learn the third member from the roster")
	}
	if pr := a.members.Load().byID[j.self]; pr == nil {
		t.Fatal("join target did not learn the joiner from its sender address")
	}
	if got := j.joins.Load(); got == 0 {
		t.Fatal("joiner's members_learned counter still zero")
	}

	// Both converge on the same three-member ring at their next sweep.
	a.recomputeMembership()
	j.recomputeMembership()
	if got, want := a.Ring().Members(), j.Ring().Members(); !reflect.DeepEqual(got, want) {
		t.Fatalf("rings diverge after join: a=%v j=%v", got, want)
	}
	if got := j.Ring().Size(); got != 3 {
		t.Fatalf("joined ring size %d, want 3", got)
	}

	// Determinism: the joined ring partitions victims identically on
	// both instances (same pure function of the alive set).
	for v := topology.NodeID(0); v < 64; v++ {
		if a.Ring().Owner(v) != j.Ring().Owner(v) {
			t.Fatalf("victim %d owner differs: a=%x j=%x", v, a.Ring().Owner(v), j.Ring().Owner(v))
		}
	}
}

// TestGossipRejectsForgedSender: a gossip message claiming a member id
// its advertised address does not hash to must not register the
// address — the id check is the membership authentication.
func TestGossipRejectsForgedSender(t *testing.T) {
	var now atomic.Int64
	addrs := []string{"10.8.0.1:1", "10.8.0.2:1"}
	n, _ := newTestNode(t, addrs[0], []string{addrs[1]}, 801, &now)

	forged := &gossipMsg{
		Sender:     MemberID(addrs[1]), // a legitimate member's id...
		SenderAddr: "10.66.6.6:1",      // ...claimed from the wrong address
		RingVer:    1,
	}
	if _, err := n.HandleGossip(appendGossipMsg(nil, forged)); err != nil {
		t.Fatalf("HandleGossip: %v", err)
	}
	if pr := n.members.Load().byID[MemberID("10.66.6.6:1")]; pr != nil {
		t.Fatal("forged sender address registered as a member")
	}
	if got := len(n.members.Load().list); got != 1 {
		t.Fatalf("known fleet grew to %d on a forged sender", got)
	}
}

// pipeDial returns a Config.Dial that reaches each node in nodes over an
// in-memory pipe, answered the way the daemon's serveGossip answers.
// Other addresses fail to dial, and so does every address while up is
// non-nil and false.
func pipeDial(nodes map[string]*Node, up *atomic.Bool) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		n := nodes[addr]
		if n == nil || (up != nil && !up.Load()) {
			return nil, errors.New("test: unreachable")
		}
		cli, srv := net.Pipe()
		go func() {
			defer srv.Close()
			rd := wire.NewReader(srv)
			for {
				ftype, payload, err := rd.ReadFrame()
				if err != nil || ftype != wire.TypeGossip {
					return
				}
				body, err := wire.ParseGossip(payload)
				if err != nil {
					return
				}
				resp, err := n.HandleGossip(body)
				if err != nil {
					return
				}
				if _, err := srv.Write(wire.AppendGossip(nil, resp)); err != nil {
					return
				}
			}
		}()
		return cli, nil
	}
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// pendingHandback reads the outbox's handback entry for v.
func pendingHandback(n *Node, v topology.NodeID) (pipeline.VictimSnapshot, bool) {
	n.out.mu.Lock()
	defer n.out.mu.Unlock()
	e, ok := n.out.entries[outboxKey{victim: v}]
	return e.snap, ok
}

func outboxLen(n *Node) int {
	n.out.mu.Lock()
	defer n.out.mu.Unlock()
	return len(n.out.entries)
}

func hasReplica(m *gossipMsg, v topology.NodeID) bool {
	for _, r := range m.Replicas {
		if r.Victim == v {
			return true
		}
	}
	return false
}

// TestHandbackOnOwnershipLoss: when a ring change moves a victim away,
// its exact state is detached through the shard queue into the outbox.
// While the new owner is unreachable the snapshot waits there, intact
// and unseeded; the first round that reaches the owner delivers it.
func TestHandbackOnOwnershipLoss(t *testing.T) {
	var now atomic.Int64
	// gossipWith derives the pipe's I/O deadline from this clock.
	now.Store(time.Now().UnixNano())
	addrs := []string{"10.9.1.1:1", "10.9.1.2:1", "10.9.1.3:1"}
	owner, powner := newTestNode(t, addrs[2], []string{addrs[0], addrs[1]}, 903, &now)
	var up atomic.Bool
	n, p := newTestNodeOn(t, topology.NewTorus2D(8), addrs[0], []string{addrs[1]}, 901, &now,
		pipeDial(map[string]*Node{addrs[2]: owner}, &up))

	// Find a victim owned here on the two-member ring that the
	// three-member ring assigns to the joiner.
	ring := n.Ring()
	joined := NewRing(2, sortedIDs(n.self, MemberID(addrs[1]), MemberID(addrs[2])), n.cfg.VNodes)
	victim := topology.NodeID(-1)
	for v := topology.NodeID(0); v < 64; v++ {
		if ring.Owner(v) == n.self && joined.Owner(v) == owner.self {
			victim = v
			break
		}
	}
	if victim < 0 {
		t.Skip("no victim moves from self to the joiner under these ids")
	}

	s := p.GetSlab()
	for i := 0; i < 10; i++ {
		s.Append(wire.Record{Victim: victim, MF: uint16(i), Topo: p.TopoID()})
	}
	p.SubmitSlab(s)
	var want pipeline.VictimSnapshot
	eventually(t, "the records to be tallied", func() bool {
		var ok bool
		want, ok = p.ExportVictim(victim)
		return ok && want.Identified()+want.Undecodable == 10
	})

	// The joiner appears; the sweep rebuilds the ring and detaches the
	// departing victim into the outbox.
	if n.addPeer(addrs[2]) == nil {
		t.Fatal("addPeer rejected the joiner")
	}
	n.recomputeMembership()
	if got := n.Ring().Version(); got != 2 {
		t.Fatalf("ring version %d, want 2", got)
	}
	eventually(t, "the detached snapshot to reach the outbox", func() bool {
		_, ok := pendingHandback(n, victim)
		return ok
	})

	// A round while every dial fails leaves it there.
	for _, pr := range n.members.Load().list {
		if err := n.gossipWith(pr); err == nil {
			t.Fatalf("gossip with %s succeeded over a dead network", pr.addr)
		}
	}
	if _, ok := p.ExportVictim(victim); ok {
		t.Fatal("detached victim still has exact state")
	}
	if got := p.C.VictimsDetached.Load(); got != 1 {
		t.Fatalf("VictimsDetached = %d, want 1", got)
	}
	got, ok := pendingHandback(n, victim)
	if !ok || !reflect.DeepEqual(got.Sources, want.Sources) || got.Undecodable != want.Undecodable {
		t.Fatalf("outbox snapshot mangled:\n got %+v ok=%v\nwant %+v", got, ok, want)
	}
	n.out.mu.Lock()
	seeded := n.out.seeded[victim]
	n.out.mu.Unlock()
	if seeded {
		t.Fatal("detached victim still latched as seeded")
	}
	n.mu.Lock()
	_, stranded := n.replicas[victim]
	n.mu.Unlock()
	if stranded {
		t.Fatal("handback filed as a stored replica, which nothing ships")
	}
	if got := n.handbacksOut.Load(); got != 0 {
		t.Fatalf("handbacksOut = %d, want 0 (owner unreachable)", got)
	}

	// The owner becomes reachable: the next round delivers the snapshot.
	up.Store(true)
	now.Store(time.Now().UnixNano())
	if err := n.gossipWith(n.members.Load().byID[owner.self]); err != nil {
		t.Fatalf("gossip with the owner: %v", err)
	}
	if _, ok := pendingHandback(n, victim); ok {
		t.Fatal("handback still in the outbox after a complete exchange")
	}
	if out, in := n.handbacksOut.Load(), owner.handbacksIn.Load(); out != 1 || in != 1 {
		t.Fatalf("handbacks out=%d in=%d, want 1/1", out, in)
	}
	eventually(t, "the handback to seed at the owner", func() bool {
		got, ok := powner.ExportVictim(victim)
		return ok && reflect.DeepEqual(got.Sources, want.Sources) && got.Undecodable == want.Undecodable
	})
}

// handbackPair builds an interim owner that reaches the victim's owner
// over an in-memory gossip pipe, and picks a victim the owner owns.
func handbackPair(t *testing.T) (shipper, recv *Node, precv *pipeline.Pipeline, victim topology.NodeID) {
	t.Helper()
	now := new(atomic.Int64)
	// gossipWith derives the pipe's I/O deadline from this clock.
	now.Store(time.Now().UnixNano())
	addrs := []string{"10.9.2.1:1", "10.9.2.2:1"}
	recv, precv = newTestNode(t, addrs[1], []string{addrs[0]}, 952, now)
	shipper, _ = newTestNodeOn(t, topology.NewTorus2D(8), addrs[0], []string{addrs[1]}, 951, now,
		pipeDial(map[string]*Node{addrs[1]: recv}, nil))
	ring := recv.Ring()
	for v := topology.NodeID(0); v < 64; v++ {
		if ring.Owner(v) == recv.self {
			return shipper, recv, precv, v
		}
	}
	t.Fatal("receiver owns nothing")
	return
}

// TestHandbackDelivery: a detached snapshot rides the interim owner's
// next gossip request; the owner absorbs it through HandleGossip and,
// owning the victim, seeds it under the epoch latch.
func TestHandbackDelivery(t *testing.T) {
	shipper, recv, precv, victim := handbackPair(t)
	shipper.fileHandback(pipeline.VictimSnapshot{
		Victim: victim, Alarmed: true, Undecodable: 4,
		Sources: []pipeline.SourceCount{{Node: 3, Count: 120}},
	}, true)
	if err := shipper.gossipWith(shipper.members.Load().byID[recv.self]); err != nil {
		t.Fatalf("gossip exchange: %v", err)
	}
	if got := shipper.handbacksOut.Load(); got != 1 {
		t.Fatalf("shipper handbacksOut = %d, want 1", got)
	}
	if got := recv.handbacksIn.Load(); got != 1 {
		t.Fatalf("receiver handbacksIn = %d, want 1", got)
	}
	eventually(t, "the handback to seed at the owner", func() bool {
		got, ok := precv.ExportVictim(victim)
		return ok && got.Identified() == 120 && got.Undecodable == 4 && got.Alarmed
	})
	if got := recv.seedsApplied.Load(); got != 1 {
		t.Fatalf("receiver seedsApplied = %d, want 1", got)
	}
}

// TestHandbackTraceSharesID: the shipper's detach and ship events and
// the receiver's seed event carry one flight-recorder id, which each
// side derives on its own, so the fleet trace fan-out stitches them.
func TestHandbackTraceSharesID(t *testing.T) {
	shipper, recv, _, victim := handbackPair(t)
	snap := pipeline.VictimSnapshot{
		Victim: victim, Undecodable: 2,
		Sources: []pipeline.SourceCount{{Node: 5, Count: 40}},
	}
	shipper.fileHandback(snap, true)
	if err := shipper.gossipWith(shipper.members.Load().byID[recv.self]); err != nil {
		t.Fatalf("gossip exchange: %v", err)
	}
	ids := func(n *Node) []uint64 {
		f := pipeline.AllTraces()
		f.Outcome, f.HasOut = pipeline.OutcomeHandback, true
		var out []uint64
		for _, tr := range n.p.Recorder().Snapshot(f) {
			out = append(out, tr.ID)
		}
		return out
	}
	want := handbackID(shipper.self, &snap)
	if got := ids(shipper); !reflect.DeepEqual(got, []uint64{want, want}) {
		t.Fatalf("shipper handback events %x, want detach and ship under %x", got, want)
	}
	if got := ids(recv); !reflect.DeepEqual(got, []uint64{want}) {
		t.Fatalf("receiver handback events %x, want the seed under %x", got, want)
	}
}

// TestHandbackFiledInFlightSurvives: a second detach of a victim whose
// handback is on an in-flight request adds to the pending entry, and
// the completed exchange must not clear it — the next round ships the
// sum, which covers both detaches' records.
func TestHandbackFiledInFlightSurvives(t *testing.T) {
	shipper, recv, precv, victim := handbackPair(t)
	pr := shipper.members.Load().byID[recv.self]
	first := pipeline.VictimSnapshot{Victim: victim, Undecodable: 1, Sources: []pipeline.SourceCount{{Node: 3, Count: 10}}}
	second := pipeline.VictimSnapshot{Victim: victim, Alarmed: true, Sources: []pipeline.SourceCount{{Node: 3, Count: 5}, {Node: 9, Count: 2}}}
	shipper.fileHandback(first, true)
	if m := shipper.buildMsg(pr, nil); !hasReplica(m, victim) {
		t.Fatal("request does not carry the handback")
	}
	shipper.fileHandback(second, true)
	shipper.clearShipped(pr)
	got, ok := pendingHandback(shipper, victim)
	if !ok || got.Identified() != 17 || got.Undecodable != 1 || !got.Alarmed {
		t.Fatalf("entry filed in flight: %+v ok=%v, want both detaches summed", got, ok)
	}
	if got := shipper.handbacksOut.Load(); got != 0 {
		t.Fatalf("handbacksOut = %d, want 0", got)
	}

	if err := shipper.gossipWith(pr); err != nil {
		t.Fatalf("gossip exchange: %v", err)
	}
	eventually(t, "the summed handback to seed at the owner", func() bool {
		got, ok := precv.ExportVictim(victim)
		return ok && got.Identified() == 17 && got.Undecodable == 1 && got.Alarmed
	})
	if _, ok := pendingHandback(shipper, victim); ok {
		t.Fatal("handback still pending after a complete exchange")
	}
}

// TestHandbackOversizeStaysLocal: a victim with more identified sources
// than one gossip body holds (5,000, about 80 KB) is detached like any
// other, but must neither panic nor hold up the entries and replicas
// around it. It stays on the interim owner as a stored replica, counted
// in replicaOversize, while a small handback in the same outbox ships;
// the backup-replica path counts and skips such a snapshot the same way.
func TestHandbackOversizeStaysLocal(t *testing.T) {
	const sources = 5000
	var now atomic.Int64
	now.Store(1)
	addrs := []string{"10.9.4.1:1", "10.9.4.2:1", "10.9.4.3:1"}
	// 8,192 nodes: room for 5,000 distinct sources.
	n, p := newTestNodeOn(t, topology.NewHypercube(13), addrs[0], []string{addrs[1]}, 941, &now, noNetwork)
	joinerID := MemberID(addrs[2])
	ring := n.Ring()
	joined := NewRing(2, sortedIDs(n.self, MemberID(addrs[1]), joinerID), n.cfg.VNodes)

	// Two victims that move to the joiner, and two that stay here with
	// the same successor on the joined ring.
	var moving, staying []topology.NodeID
	for v := topology.NodeID(0); v < 8192 && (len(moving) < 2 || len(staying) < 2); v++ {
		if ring.Owner(v) != n.self {
			continue
		}
		switch {
		case joined.Owner(v) == joinerID && len(moving) < 2:
			moving = append(moving, v)
		case joined.Owner(v) == n.self && len(staying) < 2 &&
			(len(staying) == 0 || joined.Successor(v) == joined.Successor(staying[0])):
			staying = append(staying, v)
		}
	}
	if len(moving) < 2 || len(staying) < 2 {
		t.Fatalf("victim search came up short: moving=%v staying=%v", moving, staying)
	}
	seedSources := func(v topology.NodeID, k int) {
		snap := pipeline.VictimSnapshot{Victim: v}
		for i := 0; i < k; i++ {
			snap.Sources = append(snap.Sources, pipeline.SourceCount{Node: int64(i), Count: 1})
		}
		if !p.SeedVictim(snap) {
			t.Fatalf("seed of victim %d refused", v)
		}
		eventually(t, "a seed to apply", func() bool {
			got, ok := p.ExportVictim(v)
			return ok && len(got.Sources) == k
		})
	}
	bigOut, smallOut, bigStay, smallStay := moving[0], moving[1], staying[0], staying[1]
	seedSources(bigOut, sources)
	seedSources(smallOut, 3)
	seedSources(bigStay, sources)
	seedSources(smallStay, 3)

	if n.addPeer(addrs[2]) == nil {
		t.Fatal("addPeer rejected the joiner")
	}
	n.recomputeMembership()
	eventually(t, "both moving victims to reach the outbox", func() bool {
		_, big := pendingHandback(n, bigOut)
		_, small := pendingHandback(n, smallOut)
		return big && small
	})

	m := n.buildMsg(n.members.Load().byID[joinerID], nil)
	wire.AppendGossip(nil, appendGossipMsg(nil, m)) // panics past one frame
	if hasReplica(m, bigOut) || !hasReplica(m, smallOut) {
		t.Fatalf("request carries big=%v small=%v, want only the small handback",
			hasReplica(m, bigOut), hasReplica(m, smallOut))
	}
	if got := n.replicaOversize.Load(); got != 1 {
		t.Fatalf("replicaOversize = %d, want 1", got)
	}
	if _, ok := pendingHandback(n, bigOut); ok {
		t.Fatal("oversize handback left in the outbox")
	}
	n.mu.Lock()
	kept := n.replicas[bigOut]
	n.mu.Unlock()
	if len(kept.Sources) != sources {
		t.Fatalf("oversize handback kept with %d sources, want a %d-source stored replica", len(kept.Sources), sources)
	}

	m = n.buildMsg(n.members.Load().byID[n.Ring().Successor(bigStay)], nil)
	wire.AppendGossip(nil, appendGossipMsg(nil, m))
	if hasReplica(m, bigStay) || !hasReplica(m, smallStay) {
		t.Fatalf("backup replicas big=%v small=%v, want only the small one",
			hasReplica(m, bigStay), hasReplica(m, smallStay))
	}
	if got := n.replicaOversize.Load(); got != 2 {
		t.Fatalf("replicaOversize = %d after the backup pass, want 2", got)
	}
}

// TestHandbackManyVictims: one ring change that moves more victims than
// the old 1,024-entry handback queue held delivers every snapshot to
// its new owner.
func TestHandbackManyVictims(t *testing.T) {
	const side = 40 // 1,600 victims
	fabric := topology.NewTorus2D(side)
	var now atomic.Int64
	// gossipWith derives the pipe's I/O deadline from this clock.
	now.Store(time.Now().UnixNano())
	addrs := []string{"10.9.5.1:1", "10.9.5.2:1", "10.9.5.3:1", "10.9.5.4:1"}
	owners := make(map[string]*Node)
	for i := 1; i < len(addrs); i++ {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		owners[addrs[i]], _ = newTestNodeOn(t, fabric, addrs[i], peers, uint64(950+i), &now, noNetwork)
	}
	n, p := newTestNodeOn(t, fabric, addrs[0], nil, 950, &now, pipeDial(owners, nil))
	snapOf := func(v topology.NodeID) pipeline.VictimSnapshot {
		return pipeline.VictimSnapshot{
			Victim: v, Undecodable: 1,
			Sources: []pipeline.SourceCount{{Node: int64(v), Count: int64(v) + 1}},
		}
	}
	for v := topology.NodeID(0); v < side*side; v++ {
		if !p.SeedVictim(snapOf(v)) {
			t.Fatalf("seed of victim %d refused", v)
		}
	}
	eventually(t, "every victim to be seeded", func() bool { return len(p.Victims()) == side*side })

	for _, a := range addrs[1:] {
		if n.addPeer(a) == nil {
			t.Fatalf("addPeer rejected %s", a)
		}
	}
	n.recomputeMembership()
	ring := n.Ring()
	moved := 0
	for v := topology.NodeID(0); v < side*side; v++ {
		if ring.Owner(v) != n.self {
			moved++
		}
	}
	if moved <= 1024 {
		t.Fatalf("only %d victims move; the test needs more than 1024", moved)
	}
	eventually(t, "every moving victim to be detached", func() bool {
		return p.C.VictimsDetached.Load() == uint64(moved) && outboxLen(n) == moved
	})
	for round := 0; outboxLen(n) > 0; round++ {
		if round == 3 {
			t.Fatalf("%d handbacks still in the outbox after %d rounds", outboxLen(n), round)
		}
		now.Store(time.Now().UnixNano())
		for _, pr := range n.members.Load().list {
			if err := n.gossipWith(pr); err != nil {
				t.Fatalf("gossip with %s: %v", pr.addr, err)
			}
		}
	}
	var in uint64
	for _, o := range owners {
		in += o.handbacksIn.Load()
	}
	if out := n.handbacksOut.Load(); out != uint64(moved) || in != uint64(moved) {
		t.Fatalf("handbacks out=%d in=%d, want %d each", out, in, moved)
	}
	for _, o := range owners {
		o := o
		eventually(t, "every handback to seed at its owner", func() bool {
			for v := topology.NodeID(0); v < side*side; v++ {
				if ring.Owner(v) != o.self {
					continue
				}
				got, ok := o.p.ExportVictim(v)
				if want := snapOf(v); !ok || !reflect.DeepEqual(got, want) {
					return false
				}
			}
			return true
		})
	}
}

// TestSeedDuringExpiryDoesNotDeadlock is the regression test for a lock
// cycle: a seed holding Node.mu waits for room in a full shard queue
// while that shard's worker, in a TTL sweep, runs the expiry hook. The
// hook must not wait on Node.mu, or neither side ever moves.
func TestSeedDuringExpiryDoesNotDeadlock(t *testing.T) {
	const queueLen = 4
	var pclock, now atomic.Int64
	pclock.Store(1)
	now.Store(1)
	p, err := pipeline.New(pipeline.Config{
		Net: topology.NewTorus2D(8), Shards: 1, QueueLen: queueLen,
		BlockThreshold: 1 << 30, BlockTTL: time.Hour,
		VictimTTL: time.Hour, Now: pclock.Load,
	})
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{"10.9.6.1:1", "10.9.6.2:1"}
	n, err := New(p, Config{
		Self: addrs[0], Peers: addrs[1:],
		GossipInterval: time.Hour, FailAfter: time.Second,
		Incarnation: 961, Dial: noNetwork, Now: now.Load,
	})
	if err != nil {
		p.Close()
		t.Fatal(err)
	}
	release := make(chan struct{})
	var releaseOnce sync.Once
	stuck := false
	t.Cleanup(func() {
		releaseOnce.Do(func() { close(release) })
		if !stuck { // a deadlocked pipeline never closes
			n.Close()
			p.Close()
		}
	})

	// Four victims this node owns (one to expire, three to seed) and one
	// it does not (the stall and the filler records).
	var owned []topology.NodeID
	other := topology.NodeID(-1)
	for v := topology.NodeID(0); v < 64; v++ {
		switch {
		case n.Ring().Owner(v) == n.self && len(owned) < 4:
			owned = append(owned, v)
		case n.Ring().Owner(v) != n.self && other < 0:
			other = v
		}
	}
	if len(owned) < 4 || other < 0 {
		t.Fatalf("victim search came up short: owned=%v other=%d", owned, other)
	}
	expiring, seeds := owned[0], owned[1:]
	p.SeedVictim(pipeline.VictimSnapshot{Victim: expiring, Sources: []pipeline.SourceCount{{Node: 1, Count: 5}}})
	eventually(t, "the expiring victim to exist", func() bool {
		_, ok := p.ExportVictim(expiring)
		return ok
	})

	// Stall the only worker in a detach callback, then fill its queue.
	entered := make(chan struct{})
	p.DetachVictim(other, func(pipeline.VictimSnapshot, bool) {
		close(entered)
		<-release
	})
	<-entered
	for i := 0; ; i++ {
		if i > queueLen {
			t.Fatal("shard queue never filled")
		}
		s := p.GetSlab()
		s.Append(wire.Record{Victim: other, MF: 1, Topo: p.TopoID()})
		if p.SubmitSlab(s) == 0 {
			break
		}
	}
	// Past the TTL: the first batch after the stall runs the in-band
	// sweep, which retires the expiring victim through the hook.
	pclock.Store(int64(2 * time.Hour))

	done := make(chan struct{})
	go func() {
		defer close(done)
		m := &gossipMsg{Sender: MemberID(addrs[1])}
		for _, v := range seeds {
			m.Replicas = append(m.Replicas, pipeline.VictimSnapshot{
				Victim: v, Sources: []pipeline.SourceCount{{Node: 2, Count: 7}},
			})
		}
		n.absorb(m)
	}()
	// Once the seeding goroutine holds Node.mu it is waiting on the full
	// queue; only then let the worker go.
	deadline := time.Now().Add(5 * time.Second)
	for n.mu.TryLock() {
		n.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("seeding goroutine never took Node.mu")
		}
		time.Sleep(time.Millisecond)
	}
	releaseOnce.Do(func() { close(release) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		stuck = true
		t.Fatal("deadlock: the seed holds Node.mu on a full queue while the worker's expiry hook waits for it")
	}
	eventually(t, "the seeds to apply and the expiry to file a tombstone", func() bool {
		n.out.mu.Lock()
		_, tomb := n.out.entries[outboxKey{victim: expiring, tomb: true}]
		n.out.mu.Unlock()
		return tomb && n.seedsApplied.Load() == uint64(len(seeds))
	})
}

// sortedIDs is a tiny helper for building expectation rings.
func sortedIDs(ids ...uint64) []uint64 {
	out := append([]uint64(nil), ids...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestRouteSketchGate: with the forwarding gate armed, unowned
// destinations are suppressed until they reach the guaranteed count,
// the buffered prefix replays on admission (the owner loses nothing),
// and a wide one-record-per-destination scan forwards nothing at all.
func TestRouteSketchGate(t *testing.T) {
	const admit = 8
	var now atomic.Int64
	now.Store(1)
	addrs := []string{"10.9.3.1:1", "10.9.3.2:1"}
	p, err := pipeline.New(pipeline.Config{
		Net: topology.NewTorus2D(8), Shards: 2, QueueLen: 1 << 12,
		BlockThreshold: 1 << 30, BlockTTL: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(p, Config{
		Self: addrs[0], Peers: []string{addrs[1]},
		SketchAdmit:    admit,
		GossipInterval: time.Hour, FailAfter: time.Second,
		Incarnation: 961,
		Dial:        func(string) (net.Conn, error) { return nil, errors.New("test: no network") },
		Now:         now.Load,
	})
	if err != nil {
		p.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		n.Close()
		p.Close()
	})

	ring := n.Ring()
	peerID := MemberID(addrs[1])
	hot := topology.NodeID(-1)
	for v := topology.NodeID(0); v < 64; v++ {
		if ring.Owner(v) == peerID {
			hot = v
			break
		}
	}
	if hot < 0 {
		t.Fatal("peer owns nothing")
	}

	send := func(v topology.NodeID, mf uint16) {
		s := p.GetSlab()
		s.Append(wire.Record{Victim: v, MF: mf, Topo: p.TopoID()})
		n.Route(s)
	}

	// Below threshold: every record absorbed, nothing forwarded.
	for i := 0; i < admit-1; i++ {
		send(hot, uint16(i))
	}
	if out, sup := n.forwardedOut.Load(), n.forwardSuppress.Load(); out != 0 || sup != admit-1 {
		t.Fatalf("below threshold: forwarded=%d suppressed=%d, want 0/%d", out, sup, admit-1)
	}

	// The crossing record admits the victim and replays the buffered
	// prefix: the owner-bound queue sees all admit records, exactly.
	send(hot, admit-1)
	if out := n.forwardedOut.Load(); out != admit {
		t.Fatalf("admission forwarded %d records, want %d (buffered prefix must replay)", out, admit)
	}
	if got := n.gate.admittedCount(); got != 1 {
		t.Fatalf("admitted count %d, want 1", got)
	}

	// Post-admission records forward 1:1 on the fast path.
	send(hot, admit)
	if out := n.forwardedOut.Load(); out != admit+1 {
		t.Fatalf("post-admission forwarded %d, want %d", out, admit+1)
	}

	// A scan — one record per unowned destination — forwards nothing.
	base := n.forwardedOut.Load()
	scanned := 0
	for v := topology.NodeID(0); v < 64; v++ {
		if v == hot || ring.Owner(v) != peerID {
			continue
		}
		send(v, 0)
		scanned++
	}
	if scanned == 0 {
		t.Fatal("degenerate ring: peer owns only one victim")
	}
	if out := n.forwardedOut.Load(); out != base {
		t.Fatalf("scan leaked %d forwards", out-base)
	}

	// A ring change resets the gate: earned admissions do not survive a
	// re-partition they were earned under.
	now.Store(int64(2 * time.Second))
	n.recomputeMembership() // peer silent past FailAfter: ring shrinks to self
	if got := n.Ring().Size(); got != 1 {
		t.Fatalf("ring size %d, want 1", got)
	}
	// Single-member rings bypass the gate entirely (everything local);
	// verify directly that a fresh ring version clears admissions.
	if pass, _, _ := n.gate.filter(n.Ring().Version(), wire.Record{Victim: hot}); pass {
		t.Fatal("admission survived a ring-version change")
	}
	if got := n.gate.admittedCount(); got != 0 {
		t.Fatalf("admitted count %d after reset, want 0", got)
	}
}
