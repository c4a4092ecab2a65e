package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"
)

// rig is one set-up: corpus, daemon(s), stream and generator.
type rig struct {
	w     workload
	c     *corpus
	f     *fleet
	s     *stream
	g     *gen
	heap0 uint64 // live heap with the daemon up, before any traffic
}

// setUp builds a rig and returns it with its set-up time: corpus
// generation, daemon or fleet start, every member seeing the full fleet
// alive, and warm-up. The benchmark's own heap reading is not counted.
func setUp(w workload, seed uint64, clk clock) (*rig, time.Duration, error) {
	t0 := time.Now()
	c, err := genCorpus(w, seed)
	if err != nil {
		return nil, 0, err
	}
	f, err := startFleet(w.members, c.net)
	if err != nil {
		return nil, 0, err
	}
	r := &rig{w: w, c: c, f: f, s: newStream(c)}
	if r.g, err = newGen(w, f, r.s, clk); err != nil {
		f.stop()
		return nil, 0, err
	}
	if err := f.waitAlive(10 * time.Second); err != nil {
		r.stop()
		return nil, 0, err
	}
	paused := time.Now()
	r.heap0 = liveHeap()
	t0 = t0.Add(time.Since(paused))
	if err := r.warmUp(); err != nil {
		r.stop()
		return nil, 0, err
	}
	return r, time.Since(t0), nil
}

// warmUp sends one pass of the base tape (after, on the scan, the
// primer that admits the attacked victims at every gate before any
// scan record can crowd them out) and waits for it to complete.
func (r *rig) warmUp() error {
	if r.c.keep != nil {
		pr := r.s.primer()
		r.g.sendRecs(pr[:len(pr)/2], r.g.clk.now())
		r.g.sendRecs(pr[len(pr)/2:], r.g.clk.now())
		if err := r.g.drain(); err != nil {
			return fmt.Errorf("warm-up primer: %w", err)
		}
	}
	for n := (r.c.passLen + batchSize - 1) / batchSize; n > 0; {
		if r.g.sent-r.g.completed() < closedWindow {
			r.g.send(r.g.clk.now())
			n--
			continue
		}
		sleepNS(int64(pollEvery))
	}
	if err := r.g.drain(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

func (r *rig) stop() {
	r.g.close()
	r.f.stop()
}

// schedule returns the open-loop batch index at which each injection
// starts: flood campaigns spread evenly over the phase, the scan's
// attack burst a tenth of the way in. Each injection must end before
// the next starts and before the phase ends, or its blocks would go
// unmeasured; a phase too short for that is an error.
func (r *rig) schedule(d time.Duration) ([]int, error) {
	n := int(d.Seconds() * r.w.rate / batchSize)
	k := len(r.c.injections)
	out := make([]int, k)
	room := n / (k + 1)
	if k == 1 {
		out[0], room = n/10, n-n/10
	}
	for j := range out {
		inj := &r.c.injections[j]
		if inj.per == 0 {
			inj.per = max(1, int(math.Round(campaignRate*batchSize/r.w.rate)))
		}
		if need := (len(inj.recs) + inj.per - 1) / inj.per; need > room {
			return nil, fmt.Errorf("a %v open-loop phase is too short: injection %d needs %d batches, has %d", d, j, need, room)
		}
		if k > 1 {
			out[j] = (j + 1) * n / (k + 1)
		}
	}
	return out, nil
}

// converge waits until every member's blocklist holds exactly the
// zombies (gossip replicates blocks every 500ms), calling poll while
// it waits.
func (r *rig) converge(timeout time.Duration, poll func()) (bool, string) {
	deadline := time.Now().Add(timeout)
	for {
		if poll != nil {
			poll()
		}
		ok, why := blocklistsEqual(r.f, r.c.zombieSet)
		if ok || time.Now().After(deadline) {
			return ok, why
		}
		sleepNS(int64(5 * time.Millisecond))
	}
}

// blockTimes returns each campaign zombie's time-to-block in ms: from
// the due time of its campaign's first attack record to its block. The
// block instant is read off the entry, whose expiry is the blocking
// member's clock at the block plus the block TTL, so no polling skews
// it; the earliest member wins.
func (r *rig) blockTimes(ck *checker) []float64 {
	first := map[int32]int64{}
	for _, m := range r.f.members {
		for _, e := range m.p.Blocklist().Snapshot() {
			at := e.Until - blockTTL.Nanoseconds()
			if cur, ok := first[int32(e.Node)]; !ok || at < cur {
				first[int32(e.Node)] = at
			}
		}
	}
	var out []float64
	for j, cp := range r.c.camps {
		due := r.g.campDue[j]
		if due == 0 {
			ck.failf("campaign %d never started", j)
			continue
		}
		for _, z := range cp.zombies {
			at, ok := first[int32(z)]
			if !ok {
				continue // the blocklist check reports it
			}
			if at < due {
				ck.failf("zombie %d blocked %.3fms before its campaign started", z, float64(due-at)/1e6)
				continue
			}
			out = append(out, float64(at-due)/1e6)
		}
	}
	return out
}

// windowed splits lat into windows of at least 1000 samples, takes the
// q-quantile of each, and returns their median in ms with the window
// count, so one stalled second cannot swing the run's figure.
func windowed(lat []int64, q float64) (float64, int) {
	n := max(1, len(lat)/1000)
	size := len(lat) / n
	vals := make([]float64, n)
	w := make([]int64, size)
	for i := range vals {
		copy(w, lat[i*size:(i+1)*size])
		vals[i] = float64(quantile(w, q)) / 1e6
	}
	return medianF(vals), n
}

// finish runs the correctness checks common to both runs and returns
// the ledger; poll, when set, runs while it waits for the blocklists.
func (r *rig) finish(ck *checker, poll func()) ledger {
	if ok, why := r.converge(5*time.Second, poll); !ok {
		ck.failf("blocklists: %s", why)
	}
	ck.checkTallies(r.c, r.s, r.f)
	l := readLedger(r.g, r.f)
	if un, _ := l.balance(); un > 0 {
		ck.failf("%d records unaccounted for", un)
	}
	if l.ringFlaps > 0 {
		ck.failf("%d members saw the ring change mid-run", l.ringFlaps)
	}
	if passes := r.s.pos/uint64(r.c.passLen) + 1; r.c.keep != nil && passes >= sketchAdmit {
		ck.failf("the scan ran %d passes: its ids may have reached the admission threshold", passes)
	}
	if n := r.f.slabsOutstanding(); n != 0 {
		ck.failf("%d slabs still outstanding after the drain", n)
	}
	return l
}

func runEndToEnd(w workload, seed uint64, d time.Duration) (result, error) {
	clk := newClock()
	var r *rig
	var durs []float64
	for range setups {
		if r != nil {
			r.stop()
		}
		var dur time.Duration
		var err error
		if r, dur, err = setUp(w, seed, clk); err != nil {
			return result{}, err
		}
		durs = append(durs, dur.Seconds())
	}
	defer r.stop()
	var ck checker

	capD := d / 2
	capRecs := r.g.sent
	rates := r.g.closedLoop(capD, sliceLen)
	capWall, capCPU := medianF(rates.wall), medianF(rates.cpu)
	capRecs = r.g.sent - capRecs
	if err := r.g.drain(); err != nil {
		ck.failf("capacity phase: %v", err)
	}
	openD := d - capD
	inject, err := r.schedule(openD)
	if err != nil {
		return result{}, err
	}
	open, err := r.g.openLoop(openD, w.rate, inject)
	if err != nil {
		ck.failf("%v", err)
	}
	l := r.finish(&ck, nil)
	blocks := r.blockTimes(&ck)
	p50, wins := windowed(open.lat, 0.50)
	p99, _ := windowed(open.lat, 0.99)
	lateP99 := float64(quantile(r.g.lateness, 0.99)) / 1e6
	nLat := len(open.lat)
	achieved := float64(open.offered) / open.duration.Seconds()
	open, r.g.lateness = openResult{}, nil
	r.g.close()
	state := (float64(liveHeap()) - float64(r.heap0)) / 1e6

	res := result{
		Correct:   len(ck.fails) == 0,
		Attempted: l.offered,
		Metrics: map[string]metric{
			"setup_s":                {medianF(durs), "s"},
			"capacity_rec_per_cpu_s": {capCPU, "rec/cpu-s"},
			"block_ms":               {medianF(blocks), "ms"},
			"state_mb":               {state, "MB"},
		},
	}
	un, gap := l.balance()
	res.Failed = l.shed() + un
	if !res.Correct {
		res.Failed = res.Attempted
	}
	fmt.Printf("perfbench: workload %s, seed %d, %v measured (%v capacity, %v open loop), GOMAXPROCS %d\n",
		w.name, seed, d, capD, openD, runtime.GOMAXPROCS(0))
	fmt.Printf("setup_s       %10.4f s      median of %d set-ups %s\n", medianF(durs), len(durs), fmtList(durs, "%.3f"))
	fmt.Printf("capacity_rec_per_cpu_s %10.0f rec/cpu-s  median of %d slices of 250ms per CPU-second the process used, %d records in the phase\n",
		capCPU, len(rates.cpu), capRecs)
	fmt.Printf("capacity_rps  %10.0f rec/s  the same slices per wall second (ungated)\n", capWall)
	fmt.Printf("lat_p50_ms    %10.4f ms     median of %d windows; %d batch samples at %.0f rec/s offered (%.0f achieved), generator late p99 %.3fms (ungated)\n",
		p50, wins, nLat, w.rate, achieved, lateP99)
	fmt.Printf("lat_p99_ms    %10.4f ms     median of the same %d windows' p99 (ungated)\n", p99, wins)
	fmt.Printf("block_ms      %10.4f ms     median of %d zombies in %d campaigns\n", medianF(blocks), len(blocks), len(r.c.camps))
	fmt.Printf("state_mb      %10.4f MB     live heap after the run minus before any traffic\n", state)
	fmt.Println(l)
	fmt.Printf("ledger  attempted %d, failed %d (shed %d, unaccounted %d), cluster suppress replay gap %d\n",
		res.Attempted, res.Failed, l.shed(), un, gap)
	report(ck)
	return res, nil
}

func report(ck checker) {
	if len(ck.fails) == 0 {
		fmt.Println("check: PASS (tallies = offline identifier, blocklists = zombies, every record accounted for)")
		return
	}
	fmt.Println("check: FAIL")
	for _, f := range ck.fails {
		fmt.Println("check:   " + f)
	}
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
