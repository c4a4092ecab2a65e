package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/topology"
	"repro/internal/wire"
)

// The generator is one goroutine driving at most two acked sessions.
// It never spins: a spinning generator would take one of the two cores
// the daemon runs on. Every wait is a nanosleep, because time.Sleep
// overshoots sub-millisecond waits by about a millisecond on Linux and
// would measure the timer instead of the daemon.

const (
	pollEvery    = 50 * time.Microsecond // watermark poll while waiting
	closedWindow = 32 * batchSize        // records in flight in the closed loop
	drainTimeout = 15 * time.Second
)

// sleepNS blocks the thread for about ns nanoseconds.
func sleepNS(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// clock is monotonic nanoseconds since the run started, plus the wall
// time of that origin (the daemon's blocklist stamps are wall-clock).
type clock struct {
	origin time.Time
	wall   int64
}

func newClock() clock {
	now := time.Now()
	return clock{origin: now, wall: now.UnixNano()}
}

func (c clock) now() int64 { return int64(time.Since(c.origin)) }

// pending is a sent batch waiting for the completion watermark.
type pending struct {
	target uint64 // records expected complete once this batch is
	due    int64
	span   int // root span index in the trace, -1 when tracing is off
}

type gen struct {
	f       *fleet
	s       *stream
	clk     clock
	clients []*wire.Client // session i feeds member i

	// owner maps scan victim ids to the member owning them (attacked
	// victims map to noSuppress). An unowned id reaching an ingress
	// member that does not own it is held by the forwarding gate for
	// good; the watermark must not wait for it. nil: nothing is held.
	owner []uint8

	batches uint64 // batches sent
	sent    uint64 // records sent
	held    uint64 // records of acked batches the forwarding gates keep, predicted
	direct  uint64 // records the ladder submitted without a session
	buf     []wire.Record
	marks   []int
	campDue []int64 // wall-clock due time of each campaign's first attack record

	tr       *tracer // nil when tracing is off
	onPoll   func()  // traced run: gauge probe, called from the watermark loop
	sendDur  []int64 // Client.Send durations (traced run)
	lateness []int64 // open-loop generator lateness
}

const noSuppress = 255

func newGen(w workload, f *fleet, s *stream, clk clock) (*gen, error) {
	g := &gen{f: f, s: s, clk: clk, campDue: make([]int64, len(s.c.camps))}
	for i := range w.sessions {
		c, err := wire.NewClient(wire.ClientConfig{
			Addr: f.members[i].addr, Seed: uint64(i + 1),
			MaxBatch: batchSize, Trace: w.traced,
		})
		if err != nil {
			return nil, err
		}
		g.clients = append(g.clients, c)
	}
	if w.scan && len(f.members) > 1 {
		g.owner = make([]uint8, scanIDs)
		for v := range g.owner {
			g.owner[v] = uint8(f.owner(topology.NodeID(v)))
		}
		for _, v := range s.c.victims {
			g.owner[v] = noSuppress
		}
	}
	return g, nil
}

func (g *gen) close() {
	for _, c := range g.clients {
		_ = c.Close() // records it abandons are counted by Lost, which the ledger reads
	}
}

// completed is the fleet-wide completed count the watermark compares
// batch targets against.
func (g *gen) completed() uint64 { return g.f.done() + g.held }

// send builds and sends the next batch, due at the given time.
func (g *gen) send(due int64) {
	g.buf, g.marks = g.s.next(g.buf, g.marks[:0])
	g.sendRecs(g.buf, due)
}

// predictHeld counts the records of a batch entering through session
// sess that the forwarding gate will keep.
func (g *gen) predictHeld(recs []wire.Record, sess int) uint64 {
	if g.owner == nil {
		return 0
	}
	var held uint64
	in := uint8(sess)
	for i := range recs {
		if o := g.owner[recs[i].Victim]; o != noSuppress && o != in {
			held++
		}
	}
	return held
}

// sendRecs sends one batch on the next session round-robin.
func (g *gen) sendRecs(recs []wire.Record, due int64) {
	sess := int(g.batches % uint64(len(g.clients)))
	held := g.predictHeld(recs, sess)
	for _, j := range g.marks {
		g.campDue[j] = g.clk.wall + due
	}
	g.marks = g.marks[:0]
	t0 := g.clk.now()
	c := g.clients[sess]
	_ = c.Send(recs) // its error reports shedding, which Client.Lost counts
	if c.Buffered() > 0 {
		_ = c.Flush() // a short batch stays buffered until flushed; failures count in Lost
	}
	t1 := g.clk.now()
	if g.tr != nil {
		g.tr.add("wire.send", g.batches, g.tr.open, t0, t1)
		g.sendDur = append(g.sendDur, t1-t0)
	}
	g.batches++
	g.sent += uint64(len(recs))
	g.held += held // Route ran before the ack: these are settled
}

// waitFor waits until cond holds. The ladder times single batches, so
// it yields instead of sleeping for the first two milliseconds (a
// nanosleep overshoots by tens of microseconds); the load generator
// never does this.
func waitFor(clk clock, cond func() bool) {
	spinUntil := clk.now() + int64(2*time.Millisecond)
	deadline := clk.now() + int64(drainTimeout)
	for !cond() {
		now := clk.now()
		switch {
		case now > deadline:
			return
		case now < spinUntil:
			runtime.Gosched()
		default:
			sleepNS(int64(pollEvery))
		}
	}
}

// drain waits until every record sent so far has completed.
func (g *gen) drain() error {
	target := g.sent
	deadline := g.clk.now() + int64(drainTimeout)
	for g.completed() < target {
		if g.clk.now() > deadline {
			return fmt.Errorf("drain: %d of %d records completed after %v", g.completed(), target, drainTimeout)
		}
		sleepNS(int64(pollEvery))
	}
	return nil
}

// rates are a closed-loop phase's per-slice completion rates: per
// second of wall time, and per second of CPU time the whole process
// (generator and daemon) used.
type rates struct{ wall, cpu []float64 }

// cpuTime is the process's user plus system CPU time in ns.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// closedLoop keeps closedWindow records in flight for d and returns
// the completion rates of each slice of the phase.
func (g *gen) closedLoop(d, slice time.Duration) rates {
	var r rates
	start := g.clk.now()
	end := start + int64(d)
	sliceStart, sliceDone, sliceCPU := start, g.completed(), cpuTime()
	for {
		now := g.clk.now()
		done := g.completed()
		if now-sliceStart >= int64(slice) {
			cpu := cpuTime()
			n := float64(done - sliceDone)
			r.wall = append(r.wall, n/(float64(now-sliceStart)/1e9))
			r.cpu = append(r.cpu, n/(float64(cpu-sliceCPU)/1e9))
			sliceStart, sliceDone, sliceCPU = now, done, cpu
		}
		if now >= end {
			return r
		}
		if g.sent-done < closedWindow {
			if g.tr != nil {
				g.tr.open = g.tr.add("gen.batch", g.batches, -1, now, 0)
			}
			g.send(now)
			if g.tr != nil {
				g.tr.spans[g.tr.open].End = g.clk.now()
			}
			continue
		}
		sleepNS(int64(pollEvery))
	}
}

// openResult is one open-loop phase's samples.
type openResult struct {
	lat      []int64 // per batch: due → completion watermark passes it
	offered  uint64
	duration time.Duration
}

// openLoop offers batches at rate records/s for d, starting injection
// i at batch inject[i], and times each batch from its due time to the
// moment the fleet-wide completed count passes it.
func (g *gen) openLoop(d time.Duration, rate float64, inject []int) (openResult, error) {
	period := float64(batchSize) / rate * 1e9
	n := int(d.Seconds() * rate / batchSize)
	res := openResult{lat: make([]int64, 0, n)}
	queue := make([]pending, 0, n)
	head := 0
	poll := func() {
		if g.onPoll != nil {
			g.onPoll()
		}
		done := g.completed()
		now := g.clk.now()
		for head < len(queue) && queue[head].target <= done {
			p := queue[head]
			res.lat = append(res.lat, now-p.due)
			if p.span >= 0 {
				g.tr.spans[p.span].End = now
			}
			head++
		}
	}
	start := g.clk.now()
	sent0 := g.sent
	next := 0
	for b := 0; b < n; b++ {
		due := start + int64(float64(b)*period)
		for {
			poll()
			now := g.clk.now()
			if now >= due {
				g.lateness = append(g.lateness, now-due)
				break
			}
			sleepNS(min(due-now, int64(pollEvery)))
		}
		for next < len(inject) && inject[next] <= b {
			g.s.inject(next)
			next++
		}
		span := -1
		if g.tr != nil {
			span = g.tr.add("gen.batch", g.batches, -1, due, 0)
			g.tr.open = span
		}
		g.send(due)
		queue = append(queue, pending{target: g.sent, due: due, span: span})
	}
	res.offered = g.sent - sent0
	res.duration = time.Duration(g.clk.now() - start)
	deadline := g.clk.now() + int64(drainTimeout)
	for head < len(queue) {
		if g.clk.now() > deadline {
			return res, fmt.Errorf("open loop: %d batches never completed", len(queue)-head)
		}
		sleepNS(int64(pollEvery))
		poll()
	}
	return res, nil
}
