package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/detect"
	"repro/internal/eventq"
	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/pipeline"
	"repro/internal/sketch"
	"repro/internal/topology"
	"repro/internal/traceback"
	"repro/internal/wire"
)

// The traced run measures the layers. It repeats the end-to-end run's
// phases with the benchmark's own spans on — every Client.Send, under a
// root span per batch from due time to completion — then replays the
// same corpus in-process, one batch at a time, through encode → decode
// → Route or SubmitSlab → wait-processed, and finally times direct
// calls into each module on the workload's records. Spans are kept in
// memory and written to the build directory when the run ends.

// sliceLen is one closed-loop measurement slice.
const sliceLen = 250 * time.Millisecond

// probe samples gauges in the traced run's open loop, at most every
// probeEvery; it is also where block convergence across members is
// seen.
type probe struct {
	r    *rig
	clk  clock
	last int64

	queueMax, slabsMax, fwQueueMax, goroutinesMax int64

	blLen     []int
	firstSeen []map[topology.NodeID]int64 // per member: wall ns a node first appeared
	metrics   bytes.Buffer
}

const probeEvery = int64(5 * time.Millisecond)

func newProbe(r *rig, clk clock) *probe {
	p := &probe{r: r, clk: clk, blLen: make([]int, len(r.f.members))}
	for range r.f.members {
		p.firstSeen = append(p.firstSeen, map[topology.NodeID]int64{})
	}
	p.sample(true)
	return p
}

func (p *probe) poll() { p.sample(false) }

func (p *probe) sample(force bool) {
	now := p.clk.now()
	if !force && now-p.last < probeEvery {
		return
	}
	p.last = now
	var slabs int64
	for i, m := range p.r.f.members {
		for _, d := range m.p.Snapshot().QueueDepths {
			p.queueMax = max(p.queueMax, int64(d))
		}
		slabs += m.p.SlabsOutstanding()
		if n := m.p.Blocklist().Len(); n != p.blLen[i] {
			p.blLen[i] = n
			for _, e := range m.p.Blocklist().Snapshot() {
				if _, ok := p.firstSeen[i][e.Node]; !ok {
					p.firstSeen[i][e.Node] = p.clk.wall + now
				}
			}
		}
		if m.node != nil {
			p.metrics.Reset()
			m.node.WriteMetrics(&p.metrics)
			p.fwQueueMax = max(p.fwQueueMax, promValue(p.metrics.Bytes(), "ddpmd_forward_queue_len"))
		}
	}
	p.slabsMax = max(p.slabsMax, slabs)
	p.goroutinesMax = max(p.goroutinesMax, int64(runtime.NumGoroutine()))
}

// promValue returns an unlabeled series' value from exposition text.
func promValue(text []byte, name string) int64 {
	sc := bufio.NewScanner(bytes.NewReader(text))
	prefix := []byte(name + " ")
	for sc.Scan() {
		if line := sc.Bytes(); bytes.HasPrefix(line, prefix) {
			v, err := strconv.ParseInt(string(line[len(prefix):]), 10, 64)
			if err != nil {
				return 0 // a gauge the node renders as an integer; unparsable reads as absent
			}
			return v
		}
	}
	return 0
}

// converge returns, per campaign zombie, the ms from its block at the
// first member to the last member holding it.
func (p *probe) converge() []float64 {
	if len(p.r.f.members) == 1 {
		return nil
	}
	var out []float64
	for _, cp := range p.r.c.camps {
		for _, z := range cp.zombies {
			first, last := int64(math.MaxInt64), int64(0)
			for i, m := range p.r.f.members {
				seen, ok := p.firstSeen[i][z]
				if !ok {
					first = -1
					break
				}
				for _, e := range m.p.Blocklist().Snapshot() {
					if e.Node == z {
						first = min(first, e.Until-blockTTL.Nanoseconds())
					}
				}
				last = max(last, seen)
			}
			if first > 0 && last >= first {
				out = append(out, float64(last-first)/1e6)
			}
		}
	}
	return out
}

// ladderSpans are the layer spans of the in-process replay, in the
// order a record crosses them.
var ladderSpans = []string{"wire.encode", "wire.decode", "cluster.route", "pipeline.submit", "pipeline.worker", "cluster.forward"}

// runLadder replays batches through the daemon one at a time for d and
// returns the records replayed.
func (r *rig) runLadder(tr *tracer, d time.Duration) int {
	clk := r.g.clk
	var frame []byte
	var traced []wire.TracedRecord
	var seq uint64
	recs := 0
	end := clk.now() + int64(d)
	for clk.now() < end {
		r.g.buf, r.g.marks = r.s.next(r.g.buf, r.g.marks[:0])
		batch := r.g.buf
		id := r.g.batches
		sess := int(r.g.batches % uint64(len(r.g.clients)))
		m := r.f.members[sess]
		root := tr.add("ladder.batch", id, -1, clk.now(), 0)

		t := clk.now()
		if r.w.traced {
			traced = traced[:0]
			for i := range batch {
				traced = append(traced, wire.TracedRecord{Record: batch[i],
					Ctx: wire.TraceContext{ID: wire.SplitMix64(id<<11 | uint64(i)), Sent: clk.wall + t}})
			}
			frame = wire.AppendTracedSealed(frame[:0], seq, traced)
		} else {
			frame = wire.AppendSealed(frame[:0], seq, batch)
		}
		t = tr.spans[tr.add("wire.encode", id, root, t, clk.now())].End

		slab := m.p.GetSlab()
		var err error
		if r.w.traced {
			_, err = slab.AppendTracedSealedPayload(frame[wire.HeaderSize:])
		} else {
			_, err = slab.AppendSealedPayload(frame[wire.HeaderSize:])
		}
		if err != nil {
			panic(fmt.Sprintf("ladder decode: %v", err)) // the benchmark encoded it: a bug
		}
		t = tr.spans[tr.add("wire.decode", id, root, t, clk.now())].End

		// Records the ingress member keeps: owned, or held by its gate.
		held := r.g.predictHeld(batch, sess)
		local := held
		for i := range batch {
			if r.f.owner(batch[i].Victim) == sess {
				local++
			}
		}
		localDone := m.done()
		if m.node != nil {
			m.node.Route(slab)
			t = tr.spans[tr.add("cluster.route", id, root, t, clk.now())].End
		} else {
			m.p.SubmitSlab(slab)
			t = tr.spans[tr.add("pipeline.submit", id, root, t, clk.now())].End
		}
		r.g.batches++
		r.g.sent += uint64(len(batch))
		r.g.direct += uint64(len(batch))
		r.g.held += held
		seq += uint64(len(batch))
		waitFor(clk, func() bool { return m.done()+held >= localDone+local })
		t = tr.spans[tr.add("pipeline.worker", id, root, t, clk.now())].End
		if m.node != nil {
			waitFor(clk, func() bool { return r.g.completed() >= r.g.sent })
			tr.add("cluster.forward", id, root, t, clk.now())
		}
		tr.spans[root].End = clk.now()
		recs += len(batch)
	}
	return recs
}

// direct times calls into single modules on the workload's records,
// each for d, and returns ns per record by name.
func (r *rig) direct(d time.Duration) map[string]float64 {
	c := r.c
	out := map[string]float64{}
	// exact: records that reach the exact identify/detect/block path;
	// gated: records that meet an admission gate.
	exact, gated := c.base, c.base
	if c.keep != nil {
		exact = append(append([]wire.Record(nil), c.keep...), c.injections[0].recs...)
		gated = nil
		for _, rec := range c.base {
			if int(rec.Victim) < c.net.NumNodes() {
				gated = append(gated, rec)
			}
		}
	}
	scheme, err := marking.NewDDPM(c.net)
	if err != nil {
		panic(err)
	}
	srcs := make([]topology.NodeID, len(exact))
	ident := map[topology.NodeID]*traceback.DDPMIdentifier{}
	for i, rec := range exact {
		id := ident[rec.Victim]
		if id == nil {
			id = traceback.NewDDPMIdentifier(scheme, rec.Victim)
			ident[rec.Victim] = id
		}
		srcs[i], _ = id.ObserveMF(rec.MF)
	}

	// timeLoop runs fn over consecutive batches of recs for d.
	timeLoop := func(recs []wire.Record, fn func(lo, hi int)) float64 {
		var n int
		start := time.Now()
		for lo := 0; time.Since(start) < d; lo = (lo + batchSize) % len(recs) {
			hi := min(lo+batchSize, len(recs))
			fn(lo, hi)
			n += hi - lo
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	// Untimed set-up per batch would skew timeLoop; these loops time
	// only the call under test.
	timed := func(recs []wire.Record, prep func(lo, hi int), call func()) float64 {
		var n int
		var spent time.Duration
		start := time.Now()
		for lo := 0; time.Since(start) < d; lo = (lo + batchSize) % len(recs) {
			hi := min(lo+batchSize, len(recs))
			prep(lo, hi)
			t := time.Now()
			call()
			spent += time.Since(t)
			n += hi - lo
		}
		return float64(spent.Nanoseconds()) / float64(n)
	}

	var frame []byte
	out["wire.encode"] = timeLoop(c.base, func(lo, hi int) { frame = wire.AppendSealed(frame[:0], 0, c.base[lo:hi]) })

	pool := wire.NewSlabPool(4)
	var slab *wire.Slab
	decode := func() {
		if _, err := slab.AppendSealedPayload(frame[wire.HeaderSize:]); err != nil {
			panic(err)
		}
	}
	out["wire.decode"] = timed(c.base, func(lo, hi int) {
		frame = wire.AppendSealed(frame[:0], 0, c.base[lo:hi])
		if slab != nil {
			slab.Release()
		}
		slab = pool.Get()
	}, decode)

	var trs []wire.TracedRecord
	out["wire.traced_decode"] = timed(c.base, func(lo, hi int) {
		trs = trs[:0]
		for i, rec := range c.base[lo:hi] {
			trs = append(trs, wire.TracedRecord{Record: rec, Ctx: wire.TraceContext{ID: uint64(lo+i) + 1, Sent: 1}})
		}
		frame = wire.AppendTracedSealed(frame[:0], 0, trs)
		slab.Release()
		slab = pool.Get()
	}, func() {
		if _, err := slab.AppendTracedSealedPayload(frame[wire.HeaderSize:]); err != nil {
			panic(err)
		}
	})

	out["wire.partition"] = timed(c.base, func(lo, hi int) {
		slab.Release()
		slab = pool.Get()
		for _, rec := range c.base[lo:hi] {
			slab.Append(rec)
		}
	}, func() { slab.Partition(c.topoID, c.net.NumNodes(), 4) })
	slab.Release()

	idents := map[topology.NodeID]*traceback.DDPMIdentifier{}
	out["traceback.identify"] = timeLoop(exact, func(lo, hi int) {
		for _, rec := range exact[lo:hi] {
			id := idents[rec.Victim]
			if id == nil {
				id = traceback.NewDDPMIdentifier(scheme, rec.Victim)
				idents[rec.Victim] = id
			}
			id.ObserveMF(rec.MF)
		}
	})

	type dets struct{ cu, en detect.Detector }
	ds := map[topology.NodeID]dets{}
	var pk packet.Packet
	var shift eventq.Time
	out["detect.observe"] = timeLoop(exact, func(lo, hi int) {
		if lo == 0 {
			shift += exact[len(exact)-1].T + 1 // keep ticks moving forward across wraps
		}
		for _, rec := range exact[lo:hi] {
			dd, ok := ds[rec.Victim]
			if !ok {
				dd = dets{detect.NewCUSUM(detectWindow, 4, 40), detect.NewEntropyDetector(detectWindow, 1.5)}
				ds[rec.Victim] = dd
			}
			pk.Hdr.Src, pk.Hdr.Proto = rec.Src, rec.Proto
			dd.cu.Observe(rec.T+shift, &pk)
			dd.en.Observe(rec.T+shift, &pk)
		}
	})

	bl := r.f.members[0].p.Blocklist()
	now := time.Now().UnixNano()
	out["filter.blocked_at"] = timeLoop(exact, func(lo, hi int) {
		for _, src := range srcs[lo:hi] {
			if src >= 0 {
				bl.BlockedAt(src, now)
			}
		}
	})

	cm := sketch.NewCountMin(1<<15, 4)
	hh := sketch.NewSpaceSaving[wire.Record](512, 64)
	out["sketch.gate"] = timeLoop(gated, func(lo, hi int) {
		for _, rec := range gated[lo:hi] {
			key := uint64(rec.Victim)
			hh.Touch(key, cm.Add(key), rec)
		}
	})
	return out
}

func runTraced(w workload, seed uint64, d time.Duration) (result, error) {
	clk := newClock()
	r, _, err := setUp(w, seed, clk)
	if err != nil {
		return result{}, err
	}
	defer r.stop()
	var ck checker
	tr := &tracer{open: -1}
	pr := newProbe(r, clk)
	rt0 := readRuntime()
	done0 := r.g.completed()

	// Capacity, alternating slices with the benchmark's spans off and
	// on: the difference is the tracing overhead.
	var plain, spanned []float64
	capEnd := clk.now() + int64(d*3/10)
	for i := 0; clk.now() < capEnd; i++ {
		if i%2 == 0 {
			r.g.tr = nil
			plain = append(plain, r.g.closedLoop(sliceLen, sliceLen).wall...)
		} else {
			r.g.tr = tr
			spanned = append(spanned, r.g.closedLoop(sliceLen, sliceLen).wall...)
		}
	}
	r.g.tr = nil
	if err := r.g.drain(); err != nil {
		ck.failf("capacity phase: %v", err)
	}

	r.g.tr, r.g.onPoll = tr, pr.poll
	openD := d * 3 / 10
	inject, err := r.schedule(openD)
	if err != nil {
		return result{}, err
	}
	open, err := r.g.openLoop(openD, w.rate, inject)
	if err != nil {
		ck.failf("%v", err)
	}
	r.g.tr, r.g.onPoll = nil, nil
	r.converge(5*time.Second, pr.poll) // see the open loop's blocks reach every member
	p50, _ := windowed(open.lat, 0.50)
	p99, _ := windowed(open.lat, 0.99)
	rt1 := readRuntime()
	liveRecs := float64(r.g.completed() - done0)
	pr.sample(true)
	lateP99 := float64(quantile(r.g.lateness, 0.99)) / 1e6
	sendP50 := float64(quantile(r.g.sendDur, 0.50)) / 1e6
	sendP99 := float64(quantile(r.g.sendDur, 0.99)) / 1e6
	nSend := len(r.g.sendDur)

	ladderFrom := len(tr.spans)
	ladderRecs := r.runLadder(tr, d/5)
	self := tr.selfTimes(ladderFrom)
	direct := r.direct(d / 5 / 8) // eight module calls share the last fifth

	l := r.finish(&ck, pr.poll)
	conv := pr.converge()
	un, gap := l.balance()

	perRec := func(name string) float64 { return float64(self[name]) / float64(ladderRecs) }
	layerSum := 0.0
	for _, name := range ladderSpans {
		layerSum += perRec(name)
	}
	capPlain := medianF(plain)
	var na []string
	m := map[string]metric{}
	set := func(name string, v float64, unit string, applies bool, why string) {
		if !applies {
			v = 0
			na = append(na, name+" ("+why+")")
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
	}
	frac := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	fleet := len(r.f.members) > 1
	stageN := int64(0)
	for _, mb := range r.f.members {
		for st := range pipeline.StageNames {
			if h, _ := mb.p.StageLatency(st); h != nil {
				stageN += h.N()
			}
		}
	}

	set("wire.encode_ns_per_rec", direct["wire.encode"], "ns/rec", true, "")
	set("wire.decode_ns_per_rec", direct["wire.decode"], "ns/rec", true, "")
	set("wire.traced_decode_ns_per_rec", direct["wire.traced_decode"], "ns/rec", true, "")
	set("wire.partition_ns_per_rec", direct["wire.partition"], "ns/rec", true, "")
	set("wire.send_ms_p50", sendP50, "ms", true, "")
	set("wire.send_ms_p99", sendP99, "ms", true, "")
	set("wire.resent", float64(l.resent), "count", true, "")
	set("wire.reconnects", float64(l.reconnects), "count", true, "")
	set("pipeline.submit_ns_per_rec", perRec("pipeline.submit"), "ns/rec", !fleet, "fleet: SubmitSlab runs inside cluster.route")
	set("pipeline.worker_ns_per_rec", perRec("pipeline.worker"), "ns/rec", true, "")
	set("pipeline.queue_depth_max", float64(pr.queueMax), "count", true, "")
	set("pipeline.identified_frac", frac(l.identified, l.processed), "frac", true, "")
	set("pipeline.blocked_hit_frac", frac(l.blockedHits, l.processed), "frac", true, "")
	set("pipeline.victim_states", float64(l.victimStates), "count", true, "")
	set("pipeline.sketch_suppressed_frac", frac(l.sketchSuppressed, l.processed), "frac", true, "")
	set("pipeline.sketch_admitted", float64(l.sketchAdmitted), "count", true, "")
	set("pipeline.slabs_outstanding_max", float64(pr.slabsMax), "count", true, "")
	set("pipeline.stage_samples", float64(stageN), "count", true, "")
	set("traceback.identify_ns_per_rec", direct["traceback.identify"], "ns/rec", true, "")
	set("detect.observe_ns_per_rec", direct["detect.observe"], "ns/rec", true, "")
	set("filter.blocked_at_ns_per_rec", direct["filter.blocked_at"], "ns/rec", true, "")
	set("sketch.gate_ns_per_rec", direct["sketch.gate"], "ns/rec", true, "")
	set("cluster.route_ns_per_rec", perRec("cluster.route"), "ns/rec", fleet, "single instance: no cluster tier")
	set("cluster.forward_ns_per_rec", perRec("cluster.forward"), "ns/rec", fleet, "single instance: no cluster tier")
	set("cluster.forwarded_frac", frac(l.fwOut, l.delivered), "frac", fleet, "single instance: no cluster tier")
	set("cluster.forward_queue_max", float64(pr.fwQueueMax), "count", fleet, "single instance: no cluster tier")
	set("cluster.suppressed_frac", frac(l.fwSuppress, l.delivered), "frac", fleet, "single instance: no cluster tier")
	set("cluster.suppress_replay_gap", float64(gap), "count", fleet, "single instance: no cluster tier")
	set("cluster.block_converge_ms", medianF(conv), "ms", fleet, "single instance: no gossip")
	set("cluster.gossip_fails", float64(l.gossipFails), "count", fleet, "single instance: no gossip")
	set("runtime.allocs_per_rec", float64(rt1.allocObjects-rt0.allocObjects)/liveRecs, "count", true, "")
	set("runtime.bytes_per_rec", float64(rt1.allocBytes-rt0.allocBytes)/liveRecs, "B", true, "")
	set("runtime.gc_pause_ms_total", float64(rt1.gcPauseNS-rt0.gcPauseNS)/1e6, "ms", true, "")
	set("runtime.sched_latency_p99_us", schedP99(rt0, rt1)*1e6, "us", true, "")
	set("runtime.goroutines_max", float64(max(pr.goroutinesMax, int64(rt0.goroutines), int64(rt1.goroutines))), "count", true, "")
	set("capacity_rps", capPlain, "rec/s", true, "")
	set("lat_p50_ms", p50, "ms", true, "")
	set("lat_p99_ms", p99, "ms", true, "")
	set("gen.late_p99_ms", lateP99, "ms", true, "")
	set("ladder.residue_ns_per_rec", 1e9/capPlain-layerSum, "ns/rec", true, "")
	set("trace.overhead_frac", 1-medianF(spanned)/capPlain, "frac", true, "")

	res := result{Correct: len(ck.fails) == 0, Attempted: l.offered, Metrics: m}
	res.Failed = l.shed() + un
	if !res.Correct {
		res.Failed = res.Attempted
	}
	fmt.Printf("perfbench: workload %s, seed %d, traced run over %v, GOMAXPROCS %d\n", w.name, seed, d, runtime.GOMAXPROCS(0))
	fmt.Printf("trace: capacity %.0f rec/s spans off (%d slices), %.0f spans on (%d slices)\n",
		capPlain, len(plain), medianF(spanned), len(spanned))
	fmt.Printf("trace: open loop %d batch samples, %d Client.Send spans, %d converge samples\n", len(open.lat), nSend, len(conv))
	fmt.Printf("trace: ladder %d records; self ns/rec:", ladderRecs)
	for _, name := range ladderSpans {
		fmt.Printf(" %s %.1f", name, perRec(name))
	}
	fmt.Printf(" (sum %.1f vs end-to-end %.1f)\n", layerSum, 1e9/capPlain)
	for _, s := range na {
		fmt.Println("trace: not measured: " + s)
	}
	if err := os.MkdirAll(filepath.Dir(spanPath(w, seed)), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
	} else if err := tr.write(spanPath(w, seed), 200000); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
	}
	fmt.Println(l)
	fmt.Printf("ledger  attempted %d, failed %d (shed %d, unaccounted %d), cluster suppress replay gap %d\n",
		res.Attempted, res.Failed, l.shed(), un, gap)
	report(ck)
	return res, nil
}

// spanPath is where the traced run writes its spans: the build
// directory, which the repository ignores.
func spanPath(w workload, seed uint64) string {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	return filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
}
