package sketch

import (
	"slices"
	"testing"
)

func TestGateAdmitReplaysPrefix(t *testing.T) {
	g := NewGate[int](4)
	for i := 1; i < 4; i++ {
		if g.Offer(7, i) {
			t.Fatalf("ready after %d offers, want 4", i)
		}
	}
	g.Offer(9, 100) // an unrelated key stays tracked
	if !g.Offer(7, 4) {
		t.Fatal("not ready on the 4th offer")
	}
	if got := g.Admit(7); !slices.Equal(got, []int{1, 2, 3}) {
		t.Fatalf("Admit prefix = %v, want [1 2 3]", got)
	}
	if g.Tracked() != 1 {
		t.Fatalf("Tracked = %d after admission, want 1", g.Tracked())
	}
	if got := g.Admit(7); got != nil {
		t.Fatalf("second Admit = %v, want nil", got)
	}

	one := NewGate[int](1)
	if !one.Offer(3, 1) {
		t.Fatal("admit 1 not ready on the first offer")
	}
	if got := one.Admit(3); len(got) != 0 {
		t.Fatalf("admit 1 prefix = %v, want empty", got)
	}

	g.Reset()
	if g.Tracked() != 0 || g.Decays() != 0 {
		t.Fatalf("after Reset: tracked %d decays %d", g.Tracked(), g.Decays())
	}
}

// TestGateReplayAcrossDecay: a slot that survives a windowed decay
// keeps only as many buffered items as its halved count vouches for,
// so when it later crosses the threshold the replay plus the crossing
// item is exactly the key's newest admit items — nothing between the
// buffer and the crossing item is lost.
func TestGateReplayAcrossDecay(t *testing.T) {
	const admit, hot, cold = 8, 1, 2
	g := NewGate[int](admit)
	seq := 0
	offerHot := func() bool { seq++; return g.Offer(hot, seq) }
	for i := 0; i < 6; i++ {
		if offerHot() {
			t.Fatalf("ready after %d hot offers", seq)
		}
	}
	// A single cold key fills the rest of the window; the last of its
	// offers runs the decay (hot: count 6 → 3).
	for i := 6; i < gateDecayEvery; i++ {
		g.Offer(cold, -1)
	}
	if g.Decays() != 1 {
		t.Fatalf("decays = %d after one window, want 1", g.Decays())
	}
	for !offerHot() {
		if seq > 20 {
			t.Fatal("hot key never became ready")
		}
	}
	if seq != 11 {
		t.Fatalf("admitted on hot item %d, want 11 (3 surviving + 5 fresh)", seq)
	}
	got := append(slices.Clone(g.Admit(hot)), seq)
	want := []int{4, 5, 6, 7, 8, 9, 10, 11}
	if !slices.Equal(got, want) {
		t.Fatalf("replay+crossing = %v, want the newest %d items %v", got, admit, want)
	}
}

// TestGateReadyStaysUntilAdmit: a caller that cannot admit yet keeps
// offering; the buffer keeps the newest items, and the eventual
// admission replays the admit-1 items right before the crossing one.
func TestGateReadyStaysUntilAdmit(t *testing.T) {
	g := NewGate[int](3)
	for i := 1; i <= 10; i++ {
		if ready := g.Offer(5, i); ready != (i >= 3) {
			t.Fatalf("offer %d: ready = %v", i, ready)
		}
	}
	if got := g.Admit(5); !slices.Equal(got, []int{8, 9}) {
		t.Fatalf("deferred Admit prefix = %v, want [8 9]", got)
	}
}
