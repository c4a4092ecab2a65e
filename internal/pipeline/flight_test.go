package pipeline

import (
	"fmt"
	"testing"
	"time"
)

// mkBoring builds a fast identified trace — the kind tail sampling is
// allowed to throw away.
func mkBoring(id uint64) Trace {
	return Trace{
		ID: id, Start: 1000, Victim: 5, Source: 7, Shard: 0,
		Outcome: OutcomeIdentified,
		Wire:    100, Ingest: 200, Identify: 300, Detect: 400, Block: 500,
	}
}

func TestFlightRecorderDisabledIsNil(t *testing.T) {
	if r := NewFlightRecorder(0, 64, 0); r != nil {
		t.Fatalf("size 0 should disable the recorder, got %+v", r)
	}
	if r := NewFlightRecorder(-1, 64, 0); r != nil {
		t.Fatal("negative size should disable the recorder")
	}
}

func TestTailSamplingAlwaysRetainsInterestingOutcomes(t *testing.T) {
	// sampleN enormous: retention below can only come from the
	// outcome-based "interesting" rule.
	r := NewFlightRecorder(64, 1<<30, time.Hour)
	interesting := []Outcome{
		OutcomeBlockedHit, OutcomeAlarm, OutcomeBlock,
		OutcomeDrop, OutcomeRejected, OutcomeResync,
	}
	for _, out := range interesting {
		tr := mkBoring(uint64(out) + 1)
		tr.Outcome = out
		if !r.Commit(&tr) {
			t.Errorf("outcome %v not retained", out)
		}
	}
	if got := r.Retained(); got != uint64(len(interesting)) {
		t.Fatalf("retained %d, want %d", got, len(interesting))
	}
	if got := r.Sampled(); got != 0 {
		t.Fatalf("sampler retained %d traces; outcome rule should have caught them all", got)
	}
	// Every one is still in the (large enough) ring.
	for _, out := range interesting {
		if _, ok := r.Find(uint64(out) + 1); !ok {
			t.Errorf("retained trace for outcome %v not findable", out)
		}
	}
}

func TestTailSamplingKeepsOneInNBoring(t *testing.T) {
	const n = 8
	r := NewFlightRecorder(64, n, time.Hour)
	kept := 0
	for i := 1; i <= 3*n; i++ {
		tr := mkBoring(uint64(i))
		if r.Commit(&tr) {
			kept++
		}
	}
	if kept != 3 {
		t.Fatalf("kept %d of %d boring traces, want exactly 1 in %d", kept, 3*n, n)
	}
	if got := r.Sampled(); got != 3 {
		t.Fatalf("Sampled() = %d, want 3", got)
	}
	if got := r.Observed(); got != 3*n {
		t.Fatalf("Observed() = %d, want %d", got, 3*n)
	}
}

func TestTailSamplingRetainsSlowSpans(t *testing.T) {
	slow := 10 * time.Millisecond
	r := NewFlightRecorder(64, 1<<30, slow)

	at := mkBoring(1) // all spans well under the threshold
	if r.Commit(&at) {
		t.Fatal("fast boring trace retained despite 1-in-2^30 sampling")
	}
	over := mkBoring(2)
	over.Detect = slow.Nanoseconds() + 1
	if !r.Commit(&over) {
		t.Fatal("trace with a span over the threshold not retained")
	}
	exact := mkBoring(3)
	exact.Detect = slow.Nanoseconds() // boundary: not strictly over
	if r.Commit(&exact) {
		t.Fatal("span exactly at the threshold should not count as slow")
	}

	// Threshold <= 0 disables the slow rule entirely.
	r2 := NewFlightRecorder(64, 1<<30, 0)
	huge := mkBoring(4)
	huge.Identify = int64(time.Hour)
	if r2.Commit(&huge) {
		t.Fatal("slow rule fired with a zero threshold")
	}
}

func TestRingEvictionAndSnapshotOrder(t *testing.T) {
	r := NewFlightRecorder(4, 1, time.Hour) // sampleN 1: keep everything
	for i := 1; i <= 6; i++ {
		tr := mkBoring(uint64(i))
		if !r.Commit(&tr) {
			t.Fatalf("sampleN 1 must retain every trace (i=%d)", i)
		}
	}
	if got := r.Evicted(); got != 2 {
		t.Fatalf("Evicted() = %d, want 2", got)
	}
	got := r.Snapshot(AllTraces())
	want := []uint64{6, 5, 4, 3} // newest first, oldest two evicted
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d traces, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Errorf("snapshot[%d].ID = %d, want %d", i, got[i].ID, id)
		}
	}
	if _, ok := r.Find(1); ok {
		t.Error("evicted trace still findable")
	}
}

func TestSnapshotFilters(t *testing.T) {
	r := NewFlightRecorder(16, 1, time.Hour)
	commit := func(id uint64, victim, source int64, out Outcome) {
		tr := mkBoring(id)
		tr.Victim, tr.Source, tr.Outcome = victim, source, out
		r.Commit(&tr)
	}
	commit(1, 5, 7, OutcomeIdentified)
	commit(2, 5, 7, OutcomeBlock)
	commit(3, 9, -1, OutcomeUndecodable)
	commit(4, -1, -1, OutcomeResync) // stream-level event

	ids := func(f TraceFilter) []uint64 {
		var out []uint64
		for _, tr := range r.Snapshot(f) {
			out = append(out, tr.ID)
		}
		return out
	}
	eq := func(got, want []uint64) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}

	if got := ids(AllTraces()); !eq(got, []uint64{4, 3, 2, 1}) {
		t.Errorf("AllTraces = %v", got)
	}
	f := AllTraces()
	f.Victim = 5
	if got := ids(f); !eq(got, []uint64{2, 1}) {
		t.Errorf("victim=5: %v", got)
	}
	// -1 is a real victim value (stream-level events), not a wildcard.
	f = AllTraces()
	f.Victim = -1
	if got := ids(f); !eq(got, []uint64{4}) {
		t.Errorf("victim=-1: %v", got)
	}
	f = AllTraces()
	f.Source = 7
	if got := ids(f); !eq(got, []uint64{2, 1}) {
		t.Errorf("source=7: %v", got)
	}
	f = AllTraces()
	f.Outcome, f.HasOut = OutcomeBlock, true
	if got := ids(f); !eq(got, []uint64{2}) {
		t.Errorf("outcome=block: %v", got)
	}
	f = AllTraces()
	f.ID = 3
	if got := ids(f); !eq(got, []uint64{3}) {
		t.Errorf("id=3: %v", got)
	}
	f = AllTraces()
	f.Limit = 2
	if got := ids(f); !eq(got, []uint64{4, 3}) {
		t.Errorf("limit=2: %v", got)
	}
	if tr, ok := r.Find(2); !ok || tr.Outcome != OutcomeBlock {
		t.Errorf("Find(2) = %+v, %v", tr, ok)
	}
	if _, ok := r.Find(99); ok {
		t.Error("Find(99) matched nothing committed")
	}
}

func TestCommitEventSyntheticIDs(t *testing.T) {
	r := NewFlightRecorder(16, 1<<30, time.Hour)
	seen := map[uint64]bool{}
	for i := 0; i < 8; i++ {
		id := r.CommitEvent(OutcomeResync, 12345, 42, -1)
		if id&(1<<63) == 0 {
			t.Fatalf("synthetic id %016x missing the top bit", id)
		}
		if seen[id] {
			t.Fatalf("synthetic id %016x repeated", id)
		}
		seen[id] = true
		tr, ok := r.Find(id)
		if !ok {
			t.Fatalf("stream event %016x not retained", id)
		}
		if tr.Outcome != OutcomeResync || tr.Victim != -1 || tr.Shard != -1 {
			t.Fatalf("stream event trace malformed: %+v", tr)
		}
		if tr.Wire != SpanMissing || tr.Block != SpanMissing {
			t.Fatalf("stream event should have no spans: %+v", tr)
		}
	}
}

func TestOutcomeStringRoundTrip(t *testing.T) {
	for o := Outcome(0); o < numOutcomes; o++ {
		got, ok := OutcomeFromString(o.String())
		if !ok || got != o {
			t.Errorf("outcome %d -> %q -> %v, %v", o, o.String(), got, ok)
		}
	}
	if _, ok := OutcomeFromString("nope"); ok {
		t.Error("unknown outcome name resolved")
	}
	if s := Outcome(200).String(); s != "outcome(200)" {
		t.Errorf("out-of-range outcome renders %q", s)
	}
}

// TestCommitGroupMatchesSequentialCommits holds CommitGroup to its
// contract: one group of N traces retains, orders and accounts exactly
// like N back-to-back Commits — each checked against the 1-in-N rule —
// across sampling rates, with and without the slow gate, and across
// ring wrap (groups larger than the ring included), and hands back the
// retained traces in commit order.
func TestCommitGroupMatchesSequentialCommits(t *testing.T) {
	const ringSize = 16
	var seq []Trace
	for i := 1; i <= 300; i++ {
		tr := mkBoring(uint64(i))
		switch {
		case i%17 == 0:
			tr.Outcome = OutcomeBlock
		case i%11 == 0:
			tr.Outcome = OutcomeBlockedHit
		case i%7 == 0:
			tr.Outcome = OutcomeUndecodable
		case i%5 == 0:
			tr.Identify = int64(time.Second) // slow whenever the gate is on
		}
		seq = append(seq, tr)
	}
	groupSizes := []int{1, 5, 40, 3, 64, 2} // cycled; 40 and 64 exceed the ring
	for _, sampleN := range []int{1, 3, 64} {
		for _, slow := range []time.Duration{time.Millisecond, -1} {
			one := NewFlightRecorder(ringSize, sampleN, slow)
			grp := NewFlightRecorder(ringSize, sampleN, slow)
			// The sampling rule itself: interesting traces always, and the
			// k-th boring trace when k is a multiple of sampleN.
			var wantKept []uint64
			boring := 0
			for i := range seq {
				tr := seq[i]
				keep := tr.Interesting(slow.Nanoseconds())
				if !keep {
					boring++
					keep = boring%sampleN == 0
				}
				if one.Commit(&tr) != keep {
					t.Fatalf("sampleN=%d slow=%v: Commit of trace %d returned %v, the 1-in-N rule says %v", sampleN, slow, tr.ID, !keep, keep)
				}
				if keep {
					wantKept = append(wantKept, tr.ID)
				}
			}
			var gotKept []uint64
			scratch := make([]Trace, 0, 64)
			for off, g := 0, 0; off < len(seq); g++ {
				end := min(off+groupSizes[g%len(groupSizes)], len(seq))
				ts := append(scratch[:0], seq[off:end]...)
				for _, tr := range ts[:grp.CommitGroup(ts)] {
					gotKept = append(gotKept, tr.ID)
				}
				off = end
			}
			name := fmt.Sprintf("sampleN=%d slow=%v", sampleN, slow)
			if len(gotKept) != len(wantKept) {
				t.Fatalf("%s: group commit retained %d traces, sequential %d", name, len(gotKept), len(wantKept))
			}
			for i := range wantKept {
				if gotKept[i] != wantKept[i] {
					t.Fatalf("%s: retained trace %d is %d, sequential commit retained %d", name, i, gotKept[i], wantKept[i])
				}
			}
			if one.next != grp.next || one.full != grp.full {
				t.Fatalf("%s: ring cursor (%d, full=%v) vs sequential (%d, full=%v)", name, grp.next, grp.full, one.next, one.full)
			}
			for i := range one.ring {
				if one.ring[i] != grp.ring[i] {
					t.Fatalf("%s: ring slot %d holds %+v, sequential %+v", name, i, grp.ring[i], one.ring[i])
				}
			}
			for _, c := range []struct {
				what     string
				got, exp uint64
			}{
				{"Observed", grp.Observed(), one.Observed()},
				{"Retained", grp.Retained(), one.Retained()},
				{"Sampled", grp.Sampled(), one.Sampled()},
				{"Evicted", grp.Evicted(), one.Evicted()},
			} {
				if c.got != c.exp {
					t.Errorf("%s: %s = %d, sequential %d", name, c.what, c.got, c.exp)
				}
			}
			if one.Evicted() == 0 {
				t.Fatalf("%s: the sequence never wrapped the ring", name)
			}
		}
	}
}
