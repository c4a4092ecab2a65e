package pipeline

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/eventq"
	"repro/internal/filter"
	"repro/internal/topology"
	"repro/internal/wire"
)

// fixedNow is the fake blocklist clock of the traced-path tests: far
// after every exporter send stamp, so send-to-block latencies are
// positive and exact.
const fixedNow = int64(10 * time.Second)

// tracedCorpus is a deterministic multi-victim workload in slabs: per
// victim a quiet trickle from a legitimate peer (its first records
// clear the admission gate), then a flood from that victim's own
// zombie, interleaved with undecodable records; plus cold destinations
// that never leave the sketch. Sources are disjoint per victim, so the
// outcome does not depend on how shards interleave.
func tracedCorpus(t *testing.T, net topology.Network, topoID uint32) [][]wire.Record {
	t.Helper()
	type pair struct{ victim, legit, zombie topology.NodeID }
	pairs := []pair{{15, 9, 5}, {12, 2, 6}}
	var slabs [][]wire.Record
	var slab []wire.Record
	cut := func() {
		if len(slab) > 0 {
			slabs = append(slabs, slab)
			slab = nil
		}
	}
	for _, cold := range []topology.NodeID{1, 3} {
		slab = append(slab, wire.Record{T: 1, Topo: topoID, Victim: cold, MF: mkMF(t, net, 0, cold)})
	}
	for now := eventq.Time(0); now < 500; now += 25 {
		for _, pr := range pairs {
			slab = append(slab, wire.Record{T: now, Topo: topoID, Victim: pr.victim, MF: mkMF(t, net, pr.legit, pr.victim)})
		}
	}
	cut()
	for now := eventq.Time(500); now < 2500; now++ {
		for _, pr := range pairs {
			mf := mkMF(t, net, pr.zombie, pr.victim)
			if now%97 == 0 {
				mf = 0x7F7F // off the mesh: undecodable
			}
			slab = append(slab, wire.Record{T: now, Topo: topoID, Victim: pr.victim, MF: mf})
		}
		if now%150 == 149 {
			cut()
		}
	}
	cut()
	return slabs
}

// tracedPathConfig is the shared pipeline configuration of the
// traced-path tests: CUSUM only (deterministic), a 3-record admission
// gate, every trace retained, and the fake clock. The victim TTL never
// lapses on that clock; it only makes SweepVictims a worker barrier.
func tracedPathConfig(net topology.Network, shards int) Config {
	return Config{
		Net: net, Shards: shards, QueueLen: 1024,
		CUSUMWindow: 100, CUSUMSlack: 2, CUSUMThreshold: 20,
		EntropyWindow:  -1,
		BlockThreshold: 50,
		SketchAdmit:    3,
		TraceBuffer:    1 << 14, TraceSampleN: 1,
		LatencySampleEvery: 1,
		VictimTTL:          time.Hour,
		Now:                func() int64 { return fixedNow },
	}
}

// submitSlabWait submits one slab of records (every one traced when
// traced is set, ids from *nextID) and waits until the workers have
// finished it — counters flushed, traces committed — so successive
// slabs see each other's blocks deterministically.
func submitSlabWait(t *testing.T, p *Pipeline, recs []wire.Record, traced bool, nextID *uint64) {
	t.Helper()
	s := p.GetSlab()
	for _, rec := range recs {
		if traced {
			*nextID++
			s.AppendTraced(wire.TracedRecord{Record: rec, Ctx: wire.TraceContext{ID: *nextID, Sent: 1000}})
		} else {
			s.Append(rec)
		}
	}
	if got := p.SubmitSlab(s); got != len(recs) {
		t.Fatalf("slab of %d records: %d accepted", len(recs), got)
	}
	p.SweepVictims() // queued behind the slab on every shard
}

// pipelineOutcome is everything a run decides: counters, per-victim
// state and the blocklist.
type pipelineOutcome struct {
	Snap    Snapshot
	Victims []VictimSnapshot
	Blocks  []filter.BlockEntry
}

func outcomeOf(p *Pipeline) pipelineOutcome {
	var out pipelineOutcome
	out.Snap = p.Snapshot()
	for _, v := range p.Victims() {
		vs, _ := p.ExportVictim(v)
		out.Victims = append(out.Victims, vs)
	}
	out.Blocks = p.Blocklist().Snapshot()
	sort.Slice(out.Blocks, func(i, j int) bool { return out.Blocks[i].Node < out.Blocks[j].Node })
	return out
}

// TestTracedRunMatchesUntraced: tracing is observation only. The same
// corpus — gate-suppressed prefix, floods, undecodable records, blocked
// hits — submitted once plain and once with every record traced ends
// in identical counters, tallies, alarm latches and blocklist, and
// every traced record gets exactly one ending.
func TestTracedRunMatchesUntraced(t *testing.T) {
	net := topology.NewMesh2D(4)
	var results [2]pipelineOutcome
	var fr *FlightRecorder
	var corpusLen int
	for run, traced := range []bool{false, true} {
		p, err := New(tracedPathConfig(net, 2))
		if err != nil {
			t.Fatal(err)
		}
		var nextID uint64
		corpusLen = 0
		for _, slab := range tracedCorpus(t, net, p.TopoID()) {
			submitSlabWait(t, p, slab, traced, &nextID)
			corpusLen += len(slab)
		}
		p.Close()
		results[run] = outcomeOf(p)
		fr = p.Recorder()
	}
	plain, traced := results[0], results[1]
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("traced run diverged from the plain run:\nplain  %+v\ntraced %+v", plain, traced)
	}
	snap := traced.Snap
	if snap.SketchSuppressed == 0 || snap.Alarms != 2 || snap.Blocks != 2 || snap.BlockedHits == 0 || snap.Undecodable == 0 {
		t.Fatalf("corpus does not exercise every outcome: %+v", snap)
	}
	if got := fr.Observed(); got != uint64(corpusLen) {
		t.Fatalf("recorder observed %d traces for %d traced records", got, corpusLen)
	}
	byOutcome := map[Outcome]uint64{}
	for _, tr := range fr.Snapshot(AllTraces()) {
		byOutcome[tr.Outcome]++
	}
	// The record that latched an alarm ends in "alarm" unless its source
	// was blocked in the same group, when "block" outranks it.
	nb, na := byOutcome[OutcomeBlock], byOutcome[OutcomeAlarm]
	if nb != snap.Blocks || na > snap.Alarms || na+nb < snap.Alarms {
		t.Errorf("block/alarm traces %d/%d, counters %d/%d", nb, na, snap.Blocks, snap.Alarms)
	}
	if byOutcome[OutcomeSuppressed] != snap.SketchSuppressed {
		t.Errorf("suppressed traces %d, counter %d", byOutcome[OutcomeSuppressed], snap.SketchSuppressed)
	}
	if byOutcome[OutcomeBlockedHit] != snap.BlockedHits {
		t.Errorf("blocked-hit traces %d, counter %d", byOutcome[OutcomeBlockedHit], snap.BlockedHits)
	}
}

// TestTracedGroupOutcomes scripts one victim through admission, alarm,
// block and blocked hits, and checks what each traced record's ending
// looks like: the gate's suppressed records, the record that latched
// the alarm, the record whose source was blocked (with its send-to-block
// sample), and blocked hits that never reached the detectors. The
// block trace must also own its group's exemplar bins.
func TestTracedGroupOutcomes(t *testing.T) {
	net := topology.NewTorus2D(4)
	victim, legit, zombie := topology.NodeID(15), topology.NodeID(9), topology.NodeID(5)
	p, err := New(tracedPathConfig(net, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	fr := p.Recorder()
	lmf, zmf := mkMF(t, net, legit, victim), mkMF(t, net, zombie, victim)
	var nextID uint64

	// Slab A: the quiet baseline. The first two records stay sketch-only.
	var recs []wire.Record
	for now := eventq.Time(0); now < 500; now += 25 {
		recs = append(recs, wire.Record{T: now, Topo: p.TopoID(), Victim: victim, MF: lmf})
	}
	submitSlabWait(t, p, recs, true, &nextID)
	for id := uint64(1); id <= nextID; id++ {
		tr, ok := fr.Find(id)
		if !ok {
			t.Fatalf("baseline trace %d not retained", id)
		}
		want := OutcomeIdentified
		if id <= 2 {
			want = OutcomeSuppressed
		}
		if tr.Outcome != want {
			t.Fatalf("baseline trace %d: outcome %v, want %v", id, tr.Outcome, want)
		}
		if tr.Ingest < 0 || tr.Identify < 0 {
			t.Fatalf("baseline trace %d misses ingest/identify spans: %+v", id, tr)
		}
		if reached := tr.Detect >= 0 && tr.Block >= 0; reached == (want == OutcomeSuppressed) {
			t.Fatalf("baseline trace %d (%v): detect/block spans %d/%d", id, want, tr.Detect, tr.Block)
		}
	}

	// Slab B: the flood, one victim group. Pass C blocks the zombie on
	// the group's first record; the alarm latches on a later one.
	firstB := nextID + 1
	recs = recs[:0]
	for now := eventq.Time(500); now < 2500; now++ {
		recs = append(recs, wire.Record{T: now, Topo: p.TopoID(), Victim: victim, MF: zmf})
	}
	submitSlabWait(t, p, recs, true, &nextID)
	var block, alarm []Trace
	for id := firstB; id <= nextID; id++ {
		tr, ok := fr.Find(id)
		if !ok {
			t.Fatalf("flood trace %d not retained", id)
		}
		if tr.Source != int64(zombie) {
			t.Fatalf("flood trace %d: source %d, want %d", id, tr.Source, zombie)
		}
		if tr.Ingest < 0 || tr.Identify < 0 || tr.Detect < 0 || tr.Block < 0 {
			t.Fatalf("flood trace %d misses a span: %+v", id, tr)
		}
		switch tr.Outcome {
		case OutcomeBlock:
			block = append(block, tr)
		case OutcomeAlarm:
			alarm = append(alarm, tr)
		case OutcomeIdentified:
		default:
			t.Fatalf("flood trace %d: outcome %v", id, tr.Outcome)
		}
	}
	if len(block) != 1 || block[0].ID != firstB {
		t.Fatalf("block traces %+v, want exactly the group's first record %d", block, firstB)
	}
	if len(alarm) != 1 || alarm[0].ID == firstB {
		t.Fatalf("alarm traces %+v, want exactly one, after the block record", alarm)
	}
	if h, sum := p.DetectionLatency(); h == nil || h.N() != 1 || sum != fixedNow-1000 {
		t.Fatalf("detection latency: want one sample of %dns, got sum %d", fixedNow-1000, sum)
	}
	// Every member of the group shares the block trace's bins; the block
	// outranks the alarm and the identified records beside it.
	for stage, name := range StageNames {
		found := false
		for _, id := range p.StageExemplars(stage) {
			found = found || id == block[0].ID
		}
		if !found {
			t.Errorf("stage %s: block trace %d owns no exemplar bin (%v)", name, block[0].ID, p.StageExemplars(stage))
		}
	}

	// Slab C: the zombie is blocked now — every record is a blocked hit
	// that keeps its source but never reached the detectors.
	firstC := nextID + 1
	recs = recs[:0]
	for now := eventq.Time(2500); now < 2510; now++ {
		recs = append(recs, wire.Record{T: now, Topo: p.TopoID(), Victim: victim, MF: zmf})
	}
	submitSlabWait(t, p, recs, true, &nextID)
	for id := firstC; id <= nextID; id++ {
		tr, ok := fr.Find(id)
		if !ok {
			t.Fatalf("blocked-hit trace %d not retained", id)
		}
		if tr.Outcome != OutcomeBlockedHit || tr.Source != int64(zombie) {
			t.Fatalf("trace %d: outcome %v source %d, want blocked_hit from %d", id, tr.Outcome, tr.Source, zombie)
		}
		if tr.Detect != SpanMissing || tr.Identify < 0 || tr.Block < 0 {
			t.Fatalf("blocked hit %d spans: %+v", id, tr)
		}
	}
	if got := p.C.BlockedHits.Load(); got != 10 {
		t.Fatalf("blocked hits %d, want 10", got)
	}
}
