package cluster

import (
	"testing"

	"repro/internal/topology"
	"repro/internal/wire"
)

// TestFwGateAgesIdleAdmissions: an admitted victim with no records for
// two full decay windows loses its forwarding pass and must earn it
// again, while one that kept sending keeps its pass.
func TestFwGateAgesIdleAdmissions(t *testing.T) {
	const admit = 2
	g := newFwGate(admit)
	send := func(v topology.NodeID) bool {
		pass, _, _ := g.filter(0, wire.Record{Victim: v})
		return pass
	}
	active, idle := topology.NodeID(1), topology.NodeID(2)
	for _, v := range []topology.NodeID{active, idle} {
		for i := 0; i < admit; i++ {
			send(v)
		}
	}
	if got := g.admittedCount(); got != 2 {
		t.Fatalf("admitted %d victims, want 2", got)
	}
	// One record per destination drives the gate's decay clock without
	// ever admitting anything.
	cold := topology.NodeID(1 << 20)
	scanUntil := func(decays uint64) {
		for g.gate.Decays() < decays {
			if send(cold) {
				t.Fatalf("one-shot destination %d forwarded", cold)
			}
			cold++
		}
	}
	scanUntil(1)
	if got := g.admittedCount(); got != 2 {
		t.Fatalf("after one decay window: %d admitted, want 2", got)
	}
	if !send(active) {
		t.Fatal("active victim lost its pass")
	}
	scanUntil(2)
	if _, ok := g.admitted[active]; !ok {
		t.Fatal("active victim aged out after two windows")
	}
	if _, ok := g.admitted[idle]; ok {
		t.Fatal("idle victim still admitted after two idle windows")
	}
	if send(idle) {
		t.Fatal("aged-out victim forwarded without re-earning its pass")
	}
}
