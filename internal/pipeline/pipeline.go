// Package pipeline is the online heart of ddpmd: a sharded streaming
// implementation of the paper's detect → identify → block loop over
// wire.Records instead of in-simulator packets. Records move in
// batches end to end: frames decode into pooled wire.Slabs, one
// counting sort partitions each slab by victim shard (grouped by
// victim within a shard), and every shard receives its sub-batch as a
// single channel element. Workers then run identification and
// detection per victim group — one identifier lock and one detector
// lock per (victim, batch) instead of per record. Each victim gets a
// DDPM identifier (single-packet source identification, the paper's
// §5), CUSUM + entropy detectors, and auto-blocking into a TTL'd
// blocklist.
//
// Backpressure is explicit and batch-granular: a full shard queue
// sheds that shard's whole sub-batch and counts every record in it,
// never blocking the ingest path — a traceback service that stalls
// its NIC under flood would be its own DoS amplifier.
package pipeline

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detect"
	"repro/internal/eventq"
	"repro/internal/filter"
	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traceback"
	"repro/internal/wire"
)

// Config parameterizes a Pipeline. Zero values take the defaults
// noted per field.
type Config struct {
	// Net is the fabric the marking fields were accumulated in
	// (required): identification is just S = D − V, but the decode
	// needs the topology's dimensions and wrap rule.
	Net topology.Network

	Shards   int // worker/queue pairs (default 4)
	QueueLen int // sub-batches buffered per shard (default 1024); one element is one slab view, up to wire.SlabCap records

	// Detection: per-victim CUSUM on record arrival ticks plus a
	// source-entropy detector (random spoofing inflates entropy).
	CUSUMWindow    eventq.Time // default 500 ticks
	CUSUMSlack     float64     // default 4
	CUSUMThreshold float64     // default 40
	EntropyWindow  eventq.Time // default 500 ticks; < 0 disables
	EntropyDelta   float64     // default 1.5 bits

	// Response: once a victim's detector has alarmed, sources
	// identified more than BlockThreshold times are blocked for
	// BlockTTL. Zero takes the default; a negative TTL makes
	// auto-blocks permanent (filter.Permanent), matching the filter
	// package's convention.
	BlockThreshold int64         // default 100
	BlockTTL       time.Duration // default 60s; negative = permanent

	// Sketch admission gate: before a destination earns exact per-victim
	// state (DDPM identifier + detectors), it must look hot in a
	// per-shard sketch.Gate. Below the threshold its records are tallied
	// sketch-only and counted in SketchSuppressed; crossing it
	// materializes the victimState and replays the gate's buffered
	// records through the exact path (sketch.Gate states which). A
	// shard holds at most sketch.GateSlots victim states.
	SketchAdmit int // records to materialize a victim (default 1 = admit on first record, the legacy behavior; negative disables the gate)

	// VictimTTL sweeps victims idle this long back to sketch-only
	// state: their exact state is dropped (a final VictimSnapshot goes
	// to the victim-expired hook and the journal), while blocklist
	// entries and past journal events survive. Renewed traffic
	// re-materializes through the admission gate. 0 disables sweeping.
	VictimTTL time.Duration

	// Now supplies the blocklist timebase in unix nanoseconds;
	// defaults to time.Now().UnixNano(). Tests inject a fake clock.
	Now func() int64

	// LatencySampleEvery records per-stage latencies for one in every
	// N ingest units, rounded up to a power of two (default 64; 1
	// times every unit; negative disables the histograms). A unit is
	// one submitted slab on the ingest stage and one sub-batch on the
	// shard stages — with single-record Submit that degenerates to one
	// in every N records. Sampled batches report the per-record
	// amortized stage cost, so the histograms stay comparable across
	// batch sizes. The sampled stages are ingest→enqueue,
	// decode/identify, detect and block, exposed on /metrics as
	// histogram + p50/p95/p99 series.
	LatencySampleEvery int

	// RateWindow is the span of the sliding-window ingest-rate gauge
	// (default 60s). Each /metrics scrape contributes one sample.
	RateWindow time.Duration

	// Journal, when non-nil, receives attack-audit events: alarms,
	// auto-blocks (with top-k evidence), block expiries and stream
	// incidents. The pipeline never closes it; the owner flushes it
	// with Journal.Close after Close (the daemon does this on the
	// SIGTERM drain path).
	Journal *Journal

	// JournalTopK is how many top identified sources a source-blocked
	// event carries as evidence (default 5).
	JournalTopK int

	// TraceBuffer is the flight-recorder capacity in traces (default
	// 4096; negative disables per-record tracing — a slab's trace lane
	// is then ignored and its records run exactly like untraced ones).
	// Traced records share the grouped worker path with untraced ones,
	// so the recorder can stay on in production.
	TraceBuffer int

	// TraceSampleN is the tail-sampling rate for boring traces: 1 in N
	// traces that end in plain identified/undecodable are retained
	// (default 64; 1 retains all). Interesting outcomes — alarm, block,
	// blocked-source hit, drop, rejection, resync — are always retained.
	TraceSampleN int

	// TraceSlowThreshold forces retention of any trace with a single
	// span above it, whatever its outcome (default 1ms; negative
	// disables the slow gate).
	TraceSlowThreshold time.Duration
}

func (c *Config) applyDefaults() error {
	if c.Net == nil {
		return fmt.Errorf("pipeline: Config.Net is required")
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 1024
	}
	if c.CUSUMWindow <= 0 {
		c.CUSUMWindow = 500
	}
	if c.CUSUMSlack <= 0 {
		c.CUSUMSlack = 4
	}
	if c.CUSUMThreshold <= 0 {
		c.CUSUMThreshold = 40
	}
	if c.EntropyWindow == 0 {
		c.EntropyWindow = 500
	}
	if c.EntropyDelta <= 0 {
		c.EntropyDelta = 1.5
	}
	if c.BlockThreshold <= 0 {
		c.BlockThreshold = 100
	}
	if c.BlockTTL == 0 {
		c.BlockTTL = time.Minute
	}
	if c.SketchAdmit == 0 {
		c.SketchAdmit = 1
	}
	if c.Now == nil {
		c.Now = func() int64 { return time.Now().UnixNano() }
	}
	if c.LatencySampleEvery == 0 {
		c.LatencySampleEvery = 64
	}
	if c.RateWindow <= 0 {
		c.RateWindow = time.Minute
	}
	if c.JournalTopK <= 0 {
		c.JournalTopK = 5
	}
	if c.TraceBuffer == 0 {
		c.TraceBuffer = 4096
	}
	if c.TraceSampleN <= 0 {
		c.TraceSampleN = 64
	}
	if c.TraceSlowThreshold == 0 {
		c.TraceSlowThreshold = time.Millisecond
	}
	return nil
}

// Pipeline stages instrumented with latency histograms.
const (
	stageIngest   = iota // Submit entry → shard-queue enqueue
	stageIdentify        // victim-state lookup + MF decode/identify
	stageDetect          // CUSUM/entropy update + alarm latch
	stageBlock           // blocklist consult + auto-block insertion
	numStages
)

// StageNames are the exposition labels, in stage order.
var StageNames = [numStages]string{"ingest", "identify", "detect", "block"}

// Latency histograms live in the log2-nanosecond domain: recording
// log2(ns) into stats.AtomicHistogram's fixed-width bins yields
// exponential buckets (×√2 per bin) while reusing the existing bin and
// percentile math; the exposition exponentiates the edges back to
// seconds. The range spans 1ns..2^30ns (~1.07s).
const (
	latLo   = 0
	latHi   = 30
	latBins = 60
)

// Detection latency — exporter send stamp to the block decision —
// crosses hosts and possibly a forward hop, so its range runs wider
// than the stage histograms: 2^10ns (~1µs) to 2^40ns (~18min).
const (
	detLatLo   = 10
	detLatHi   = 40
	detLatBins = 60
)

// stageLat is one stage's telemetry: the sharded histogram plus an
// exact nanosecond sum for the Prometheus _sum series (the histogram's
// own mean would be a bin-midpoint approximation).
type stageLat struct {
	hist  *stats.AtomicHistogram
	sumNS atomic.Int64
}

func (l *stageLat) observe(hint uint64, d time.Duration) {
	l.sumNS.Add(d.Nanoseconds())
	l.hist.Observe(hint, stats.Log2NS(d.Nanoseconds()))
}

// Counters is the pipeline's atomic metric block. Every field is a
// monotone total; read them consistently with the Snapshot method
// (which adds the non-monotone gauges: queue depths, active blocks).
type Counters struct {
	Ingested       atomic.Uint64 // records offered to Submit
	Dropped        atomic.Uint64 // backpressure: shard queue full
	RejectedClosed atomic.Uint64 // Submit after Close — a lifecycle bug upstream, not load shed
	TopoMismatch   atomic.Uint64 // record's TopoID != the pipeline's
	BadVictim      atomic.Uint64 // victim outside the topology
	Processed      atomic.Uint64 // records a shard worker consumed
	Identified     atomic.Uint64 // MF decoded to an in-topology source
	Undecodable    atomic.Uint64 // MF decode rejects
	BlockedHits    atomic.Uint64 // records from an actively blocked source
	Alarms         atomic.Uint64 // victims whose detector fired (first fire each)
	Blocks         atomic.Uint64 // auto-block insertions

	SketchSuppressed  atomic.Uint64 // records tallied sketch-only, below the admission threshold
	SketchReplayed    atomic.Uint64 // buffered records replayed through the exact path on admission
	SketchDeferred    atomic.Uint64 // admissions deferred at the per-shard victim-state cap
	VictimsAdmitted   atomic.Uint64 // victim states materialized through the gate
	VictimsExpired    atomic.Uint64 // victim states swept back to sketch-only by VictimTTL
	VictimsDetached   atomic.Uint64 // victim states handed off to a new cluster owner
	SchemeUnbuildable atomic.Uint64 // records for a fabric the marking scheme cannot cover
}

// Snapshot is a plain-value copy of the counters plus derived state.
// Accepted (records that passed validation and were enqueued) is
// derived: ingested minus every rejection counter, so the hot path
// pays no extra atomic for it.
type Snapshot struct {
	Ingested, Accepted, Dropped, RejectedClosed uint64
	TopoMismatch, BadVictim                     uint64
	Processed, Identified, Undecodable          uint64
	BlockedHits, Alarms, Blocks                 uint64
	SketchSuppressed, SketchReplayed            uint64
	SketchDeferred, VictimsAdmitted             uint64
	VictimsExpired, VictimsDetached             uint64
	SketchDecays, SchemeUnbuildable             uint64
	QueueDepths                                 []int
	ActiveBlocks                                int
	VictimStates                                int
	SketchHeavySlots                            int64

	// Per-shard views of the worker counters, indexed by shard.
	ShardProcessed    []uint64
	ShardIdentified   []uint64
	ShardDropped      []uint64
	ShardGatedVictims []int64
}

// victimState is everything the pipeline keeps per victim node. It is
// created lazily on the victim's first record and lives in exactly one
// shard, so the detectors are fed single-threaded; the Synchronized/
// Sync wrappers exist for the admin plane reading alongside.
type victimState struct {
	ident   *traceback.SyncDDPMIdentifier
	cusum   detect.Detector
	entropy detect.Detector
	alarmed atomic.Bool   // latch: worker sets once, admin plane reads
	scratch packet.Packet // reused to feed packet-shaped detectors

	// lastSeen is the cfg.Now() instant of the victim's latest record
	// (or its creation), read by the TTL sweep. Atomic because the
	// admin plane reports it while the worker updates it.
	lastSeen atomic.Int64

	// Batch views of the detectors: LockInner hands the worker the
	// unsynchronized detector under a held lock, so a victim group of N
	// records costs one acquisition, not N.
	cusumL   detect.InnerLocker
	entropyL detect.InnerLocker
}

// batch is one shard-queue element: a [start, end) view into a
// partitioned slab (records contiguous and victim-grouped) plus the
// Submit-entry wall clock. The receiving worker owns one slab
// reference and releases it when done. A batch with seed set instead
// carries a cluster victim-state replica to merge (see SeedVictim);
// one with detach set asks the worker to snapshot-and-remove a victim's
// state (see DetachVictim); one with sweep set asks the worker to run a
// VictimTTL sweep over its shard (done, when non-nil, receives one ack
// per sweep — the deterministic handle SweepVictims uses); all three
// carry a nil slab.
type batch struct {
	slab       *wire.Slab
	start, end int32
	t0         int64
	seed       *VictimSnapshot
	detach     *detachReq
	sweep      bool
	done       chan<- struct{}
}

// detachReq asks a shard worker to hand a victim's exact state out of
// the pipeline: snapshot it, delete it, and pass the snapshot to fn.
type detachReq struct {
	victim topology.NodeID
	fn     func(VictimSnapshot, bool)
}

type shard struct {
	ch      chan batch
	mu      sync.Mutex // guards victims map shape (worker writes, admin reads)
	victims map[topology.NodeID]*victimState

	// Per-group worker scratch: srcs holds the identified source per
	// record (or a negative sentinel, see srcBlocked), outs each traced
	// record's outcome, traces the group's traces before their commit.
	srcs   []int32
	outs   []Outcome
	traces []Trace

	// Admission gate (nil when SketchAdmit < 0), owned by the worker
	// goroutine — no locks. lastSweep is the in-band TTL-sweep clock in
	// cfg.Now() nanos.
	gate      *sketch.Gate[wire.Record]
	lastSweep int64

	// Gate occupancy mirrored after each batch for the admin plane,
	// which must not read the worker-owned gate: decays, tracked slots.
	decays atomic.Uint64
	gated  atomic.Int64

	// Per-shard worker counters behind the shard="N" metric labels.
	// batches is the worker-local latency-sampling clock, one tick per
	// sub-batch; the pend fields batch counts between flushes so the
	// hot path pays two atomic adds per flushEvery records (or per
	// queue drain) instead of per record. The atomics are what the
	// admin plane reads.
	batches        uint64
	pendProcessed  uint64
	pendIdentified uint64
	processed      atomic.Uint64
	identified     atomic.Uint64
	dropped        atomic.Uint64
}

// scratch returns the shard's per-group srcs and outs scratch sized n.
// Called only from the shard's worker goroutine; the slices are valid
// until the next call.
func (s *shard) scratch(n int) ([]int32, []Outcome) {
	if cap(s.srcs) < n {
		c := max(n, wire.SlabCap)
		s.srcs = make([]int32, c)
		s.outs = make([]Outcome, c)
	}
	return s.srcs[:n], s.outs[:n]
}

// flushEvery bounds how stale a shard's published counters may be
// while its queue stays non-empty; an idle queue flushes immediately.
const flushEvery = 64

// flush publishes the worker-local pending counts. Called only from
// the shard's worker goroutine.
func (s *shard) flush() {
	if s.pendProcessed > 0 {
		s.processed.Add(s.pendProcessed)
		s.pendProcessed = 0
	}
	if s.pendIdentified > 0 {
		s.identified.Add(s.pendIdentified)
		s.pendIdentified = 0
	}
}

// Pipeline is the running sharded service. Build with New, feed with
// Submit (any goroutine), stop with Close (drains queues).
type Pipeline struct {
	cfg    Config
	topoID uint32
	shards []*shard
	bl     *filter.Blocklist
	pool   *wire.SlabPool

	// scheme is the DDPM marking scheme, built once at New. When the
	// fabric is unbuildable (more nodes than the 16-bit MF can cover)
	// schemeErr caches the failure so the hot path never retries
	// construction — records for such fabrics count SchemeUnbuildable.
	scheme    *marking.DDPM
	schemeErr error

	// victimExpired, when set, receives the final snapshot of every
	// victim the TTL sweep retires (called on the shard worker with no
	// pipeline locks held) — the cluster tier's expiry feed.
	victimExpired atomic.Pointer[func(VictimSnapshot)]
	sweepIval     int64         // in-band sweep cadence in cfg.Now() nanos (0 = off)
	sweepQuit     chan struct{} // stops the real-time sweep ticker

	C Counters

	lat        [numStages]stageLat
	detLat     stageLat // send-to-block detection latency (traced records only)
	sampleOn   bool
	sampleMask uint64        // pow2-1: sample when count&mask == 0
	submitSeq  atomic.Uint64 // ingest-stage sampling clock, one tick per submitted slab
	rateWin    *stats.RateWindow
	fr         *FlightRecorder // nil when tracing disabled

	mu     sync.RWMutex // serializes Submit against Close
	closed bool
	wg     sync.WaitGroup
}

// New builds and starts the pipeline's shard workers.
func New(cfg Config) (*Pipeline, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:     cfg,
		topoID:  wire.TopoID(cfg.Net.Name()),
		bl:      filter.NewTTLBlocklist(),
		pool:    wire.NewSlabPool(cfg.Shards*4 + 8),
		rateWin: stats.NewRateWindow(cfg.RateWindow),
	}
	p.scheme, p.schemeErr = marking.NewDDPM(cfg.Net)
	if cfg.LatencySampleEvery > 0 {
		p.sampleOn = true
		every := uint64(1)
		for every < uint64(cfg.LatencySampleEvery) {
			every <<= 1
		}
		p.sampleMask = every - 1
		for i := range p.lat {
			p.lat[i].hist = stats.NewAtomicHistogram(latLo, latHi, latBins, cfg.Shards)
		}
	}
	if cfg.TraceBuffer > 0 {
		p.fr = NewFlightRecorder(cfg.TraceBuffer, cfg.TraceSampleN, cfg.TraceSlowThreshold)
		p.detLat.hist = stats.NewAtomicHistogram(detLatLo, detLatHi, detLatBins, cfg.Shards)
	}
	for i := 0; i < cfg.Shards; i++ {
		s := &shard{
			ch:      make(chan batch, cfg.QueueLen),
			victims: make(map[topology.NodeID]*victimState),
		}
		if cfg.SketchAdmit > 0 && p.schemeErr == nil {
			s.gate = sketch.NewGate[wire.Record](cfg.SketchAdmit)
		}
		p.shards = append(p.shards, s)
		p.wg.Add(1)
		go p.run(s, i)
	}
	if cfg.VictimTTL > 0 {
		p.sweepIval = cfg.VictimTTL.Nanoseconds()
		p.sweepQuit = make(chan struct{})
		p.wg.Add(1)
		go p.sweepLoop()
	}
	return p, nil
}

// TopoID returns the wire topology id this pipeline accepts.
func (p *Pipeline) TopoID() uint32 { return p.topoID }

// Blocklist exposes the shared TTL blocklist (concurrent-use-safe) for
// the admin plane.
func (p *Pipeline) Blocklist() *filter.Blocklist { return p.bl }

// Journal returns the configured attack-audit journal (nil when
// disabled). The pipeline emits to it but never closes it.
func (p *Pipeline) Journal() *Journal { return p.cfg.Journal }

// Recorder returns the flight recorder (nil when tracing is disabled).
func (p *Pipeline) Recorder() *FlightRecorder { return p.fr }

// GetSlab returns an empty pooled slab for decoding frames into. Hand
// it to SubmitSlab when filled — SubmitSlab consumes the caller's
// reference, so Get → fill → SubmitSlab is a complete lifecycle.
func (p *Pipeline) GetSlab() *wire.Slab { return p.pool.Get() }

// SlabsOutstanding reports pooled slabs handed out and not yet fully
// released — zero once every submitter has returned and the shard
// queues have drained (the leak check).
func (p *Pipeline) SlabsOutstanding() int64 { return p.pool.Outstanding() }

// Submit offers one record to the pipeline without blocking. It
// reports false when the record was not queued — validation failure or
// backpressure — with the reason visible in the counters.
func (p *Pipeline) Submit(rec wire.Record) bool {
	s := p.pool.Get()
	s.Append(rec)
	return p.SubmitSlab(s) == 1
}

// SubmitSlab offers a filled slab to the pipeline without blocking and
// returns how many of its records were enqueued. Records whose trace
// lane entry is nonzero (wire.Slab.AppendTraced) have their journey
// recorded into the flight recorder, including the rejection paths:
// every trace gets an ending, even "the queue was full". The slab is
// partitioned in place by victim shard; each shard's contiguous
// sub-batch is submitted as one queue element. A full shard queue
// sheds that whole sub-batch (each record counted in Dropped and the
// shard's counter) — batch-granularity backpressure. Validation
// failures (topology mismatch, victim out of range) are counted per
// record as before.
//
// SubmitSlab consumes the caller's slab reference: after the call the
// caller must not touch the slab.
func (p *Pipeline) SubmitSlab(s *wire.Slab) (accepted int) {
	n := len(s.Recs)
	if n == 0 {
		s.Release()
		return 0
	}
	end := p.C.Ingested.Add(uint64(n))
	first := end - uint64(n)
	traced := s.Ctxs != nil && p.fr != nil
	// Sample one submit in every period: the unit is the slab, not the
	// record, so batch ingest keeps the same sampling overhead as
	// single-record Submit instead of multiplying it by the batch size.
	sampled := p.sampleOn && (p.submitSeq.Add(1)-1)&p.sampleMask == 0
	var t0 time.Time
	if sampled || traced {
		t0 = time.Now()
	}
	groups, valid := s.Partition(p.topoID, p.cfg.Net.NumNodes(), len(p.shards))
	for i := valid; i < n; i++ {
		rec := s.Recs[i]
		if rec.Topo != p.topoID {
			p.C.TopoMismatch.Add(1)
		} else {
			p.C.BadVictim.Add(1)
		}
		if traced && s.Ctxs[i].ID != 0 {
			p.traceIngestFail(&s.Ctxs[i], rec.Victim, t0, OutcomeRejected)
		}
	}
	p.mu.RLock()
	if p.closed {
		// Not backpressure: the caller outlived the pipeline. Count it
		// apart from Dropped so load shed stays a clean signal.
		p.mu.RUnlock()
		p.C.RejectedClosed.Add(uint64(valid))
		if traced {
			for i := 0; i < valid; i++ {
				if s.Ctxs[i].ID != 0 {
					p.traceIngestFail(&s.Ctxs[i], s.Recs[i].Victim, t0, OutcomeRejected)
				}
			}
		}
		s.Release()
		return 0
	}
	var t0ns int64
	if sampled || traced {
		t0ns = t0.UnixNano()
	}
	for _, g := range groups {
		sh := p.shards[g.Shard]
		s.Retain() // the worker's reference; dropped again on shed
		select {
		case sh.ch <- batch{slab: s, start: int32(g.Start), end: int32(g.End), t0: t0ns}:
			accepted += g.End - g.Start
		default:
			s.Release()
			cnt := uint64(g.End - g.Start)
			p.C.Dropped.Add(cnt) // bounded queue full: shed the sub-batch, don't stall ingest
			sh.dropped.Add(cnt)
			if traced {
				for i := g.Start; i < g.End; i++ {
					if s.Ctxs[i].ID != 0 {
						p.traceIngestFail(&s.Ctxs[i], s.Recs[i].Victim, t0, OutcomeDrop)
					}
				}
			}
		}
	}
	p.mu.RUnlock()
	if sampled {
		// One amortized observation per sampled batch: the whole submit
		// (partition + every enqueue) divided across its records.
		p.lat[stageIngest].observe(first, time.Since(t0)/time.Duration(n))
	}
	s.Release()
	return accepted
}

// traceIngestFail commits a trace for a record that never reached a
// shard worker: validation rejection or queue-full shed. Only the Wire
// (and Forward) spans are known; everything downstream is SpanMissing.
func (p *Pipeline) traceIngestFail(c *wire.TraceContext, victim topology.NodeID, t0 time.Time, out Outcome) {
	var t [1]Trace
	t[0].begin(c, t0.UnixNano(), int64(victim), -1)
	t[0].Outcome = out
	p.commitTraces(t[:])
}

// stageSpans returns the trace's daemon-side spans in stage order.
func (t *Trace) stageSpans() [numStages]int64 {
	return [numStages]int64{t.Ingest, t.Identify, t.Detect, t.Block}
}

// begin (re)starts t as the trace of a record that entered Submit at
// start (unix nanos): its identity plus the Wire and Forward spans read
// off its context. Every daemon-side span starts SpanMissing, Source
// -1 and Outcome identified. Filling in place keeps the worker's trace
// scratch free of whole-struct copies.
func (t *Trace) begin(c *wire.TraceContext, start, victim int64, shard int32) {
	t.ID, t.Sent, t.Start = c.ID, c.Sent, start
	t.Victim, t.Source, t.Shard = victim, -1, shard
	t.Outcome, t.Origin = OutcomeIdentified, 0
	t.Wire, t.Forward, t.Ingest = SpanMissing, SpanMissing, SpanMissing
	t.Identify, t.Detect, t.Block = SpanMissing, SpanMissing, SpanMissing
	if c.Routed > 0 {
		// The record crossed a cluster forward hop: Wire ends at the
		// origin's route decision, Forward covers route → forward
		// queue → wire → this node's Submit entry.
		if c.Sent > 0 {
			t.Wire = c.Routed - c.Sent
		}
		if start > 0 {
			t.Forward = start - c.Routed
		}
		t.Origin = c.Origin
	} else if c.Sent > 0 && start > 0 {
		t.Wire = start - c.Sent
	}
}

// observeDetection records one send-to-block detection latency sample.
// Unlike the stage histograms it is unsampled — blocks are rare and
// each one's latency is the paper's headline quantity.
func (p *Pipeline) observeDetection(hint uint64, ns int64) {
	if p.detLat.hist == nil || ns <= 0 {
		return
	}
	p.detLat.sumNS.Add(ns)
	p.detLat.hist.Observe(hint, stats.Log2NS(ns))
}

// DetectionLatency returns the send-to-block histogram and exact
// nanosecond sum (nil histogram when tracing is disabled).
func (p *Pipeline) DetectionLatency() (*stats.Histogram, int64) {
	if p.detLat.hist == nil {
		return nil, 0
	}
	return p.detLat.hist.Snapshot(), p.detLat.sumNS.Load()
}

// commitTraces offers a group of completed traces to the flight
// recorder and stamps each stage histogram's exemplar once, from the
// most severe retained trace that reached the stage — block, then
// alarm, then any other. A victim group's traces share their pass spans
// and so their bins; ranking keeps the record that explains a block
// from being painted over by the blocked hits beside it. Stamping only
// retained traces keeps exemplars resolvable: an id read off /metrics
// can always be looked up in /debug/traces (until the ring evicts it).
func (p *Pipeline) commitTraces(ts []Trace) {
	kept := ts[:p.fr.CommitGroup(ts)]
	if !p.sampleOn || len(kept) == 0 {
		return
	}
	var best, rank [numStages]int
	for i := range kept {
		t := &kept[i]
		r := 1
		switch t.Outcome {
		case OutcomeBlock:
			r = 3
		case OutcomeAlarm:
			r = 2
		}
		for stage, ns := range t.stageSpans() {
			if ns >= 0 && r >= rank[stage] {
				best[stage], rank[stage] = i, r
			}
		}
	}
	for stage := range numStages {
		if rank[stage] == 0 {
			continue
		}
		t := &kept[best[stage]]
		p.lat[stage].hist.SetExemplar(stats.Log2NS(t.stageSpans()[stage]), t.ID)
	}
}

// Close stops accepting records, drains every shard queue and waits
// for the workers — the SIGTERM path. Safe to call more than once.
func (p *Pipeline) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		if p.sweepQuit != nil {
			close(p.sweepQuit)
		}
		for _, s := range p.shards {
			close(s.ch)
		}
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *Pipeline) run(s *shard, si int) {
	defer p.wg.Done()
	for b := range s.ch {
		if b.sweep {
			p.sweepShard(s)
			if b.done != nil {
				b.done <- struct{}{}
			}
			continue
		}
		if b.seed != nil {
			p.applySeed(s, b.seed)
			continue
		}
		if b.detach != nil {
			p.applyDetach(s, b.detach)
			continue
		}
		p.processBatch(s, si, b)
		b.slab.Release()
		if s.pendProcessed >= flushEvery || len(s.ch) == 0 {
			s.flush()
		}
		if p.sweepIval > 0 {
			// In-band sweep: keeps TTL expiry moving on the configured
			// timebase even when the real-time ticker and the fake clock
			// disagree (tests) or the queue is never idle.
			if now := p.cfg.Now(); now-s.lastSweep >= p.sweepIval {
				s.lastSweep = now
				p.sweepShard(s)
			}
		}
	}
	s.flush()
}

// srcBlocked marks a record whose identified source was already
// blocked at observation time (dropped before the detectors, like the
// in-fabric filter would). Such a record keeps its source encoded below
// the sentinel, as srcBlocked − src, for its trace.
const srcBlocked = int32(-2)

// batchCtx accumulates one batch's worth of tallies and stage timings
// across its victim groups — including groups replayed through the
// admission gate — flushed to the atomic counters once per batch.
type batchCtx struct {
	sampled bool  // this batch feeds the stage histograms
	timed   bool  // sampled or traced: read the clock at pass boundaries
	t0      int64 // the batch's Submit-entry wall clock (unix nanos; 0 when untimed)
	tMark   time.Time

	// dur sums each stage's pass wall times over the batch (the sampled
	// histograms); span holds the batch's ingest span and then the
	// latest group's identify/detect/block pass wall times (the traces).
	dur  [numStages]time.Duration
	span [numStages]int64

	identified, undecodable, blockedHits uint64
	alarms, blocks                       uint64
	suppressed, deferred, replayed       uint64
	admitted, unbuildable                uint64
}

// lap closes one pass of a group: its wall time since the previous
// boundary becomes the group's span for stage and adds to the batch sum.
func (fc *batchCtx) lap(stage int) {
	t := time.Now()
	d := t.Sub(fc.tMark)
	fc.tMark = t
	fc.dur[stage] += d
	fc.span[stage] = d.Nanoseconds()
}

// flush publishes the accumulated tallies. The worker-local pending
// counters piggyback on the shard's existing flush cadence.
func (fc *batchCtx) flush(p *Pipeline, s *shard) {
	if fc.identified > 0 {
		p.C.Identified.Add(fc.identified)
		s.pendIdentified += fc.identified
	}
	if fc.undecodable > 0 {
		p.C.Undecodable.Add(fc.undecodable)
	}
	if fc.blockedHits > 0 {
		p.C.BlockedHits.Add(fc.blockedHits)
	}
	if fc.alarms > 0 {
		p.C.Alarms.Add(fc.alarms)
	}
	if fc.blocks > 0 {
		p.C.Blocks.Add(fc.blocks)
	}
	if fc.suppressed > 0 {
		p.C.SketchSuppressed.Add(fc.suppressed)
	}
	if fc.deferred > 0 {
		p.C.SketchDeferred.Add(fc.deferred)
	}
	if fc.replayed > 0 {
		p.C.SketchReplayed.Add(fc.replayed)
	}
	if fc.admitted > 0 {
		p.C.VictimsAdmitted.Add(fc.admitted)
	}
	if fc.unbuildable > 0 {
		p.C.SchemeUnbuildable.Add(fc.unbuildable)
	}
}

// processBatch consumes one sub-batch view. Records are already grouped
// by victim, so each group runs three passes — identify under one
// identifier lock, detect under one detector lock, block under the
// identifier lock again — and counters/latency histograms are written
// once per batch instead of once per record. Groups for destinations
// without exact state first clear the sketch admission gate (see
// gateRecord); the rest of the group from the crossing record on takes
// the exact path.
//
// A slab carrying a trace lane takes the same path while the flight
// recorder is on: the passes also record each traced record's outcome,
// and the group's traces are committed together once its passes end,
// with the group's pass wall times as their identify/detect/block
// spans (DESIGN.md §10.2).
//
// Batch granularity shifts two per-record behaviors by design: a block
// inserted while processing a group takes effect from the next group
// (records already identified in this group were prefiltered against
// the blocklist as of the group's start), and the block pass may block
// a source based on any record of the group once the victim's alarm
// latch is set, not only records after the alarming one. Both keep the
// end state — who is blocked, who alarmed — identical for steady
// streams; see DESIGN.md §11.
func (p *Pipeline) processBatch(s *shard, si int, b batch) {
	recs := b.slab.Recs[b.start:b.end]
	var ctxs []wire.TraceContext
	if b.slab.Ctxs != nil && p.fr != nil {
		ctxs = b.slab.Ctxs[b.start:b.end]
	}
	n := len(recs)
	s.pendProcessed += uint64(n)
	fc := batchCtx{sampled: p.sampleOn && s.batches&p.sampleMask == 0, t0: b.t0}
	s.batches++
	fc.timed = fc.sampled || ctxs != nil
	if fc.timed {
		fc.tMark = time.Now()
	}
	fc.span[stageIngest] = SpanMissing
	if ctxs != nil && b.t0 > 0 {
		// Submit entry → worker dequeue: validation plus queue wait.
		fc.span[stageIngest] = fc.tMark.UnixNano() - b.t0
	}
	for gi := 0; gi < n; {
		v := recs[gi].Victim
		ge := gi + 1
		for ge < n && recs[ge].Victim == v {
			ge++
		}
		group := recs[gi:ge]
		var gctx []wire.TraceContext
		if ctxs != nil {
			gctx = ctxs[gi:ge]
		}
		gi = ge
		st := s.victims[v]
		k, kOut := 0, OutcomeSuppressed // leading records that never reach exact state
		if st == nil {
			switch {
			case p.schemeErr != nil:
				// Unbuildable scheme for this fabric, cached at New: count
				// and move on instead of retrying construction per batch.
				fc.unbuildable += uint64(len(group))
				k, kOut = len(group), OutcomeUndecodable
			case s.gate != nil:
				// Admission gate: feed records through the sketch one at a
				// time until one materializes the victim; the crossing
				// record onward takes the exact path below.
				for k < len(group) {
					if st = p.gateRecord(s, v, group[k], &fc); st != nil {
						break
					}
					k++
				}
			default:
				st = p.materialize(s, v)
			}
		}
		srcs, outs := s.scratch(len(group))
		if gctx == nil {
			if st != nil {
				p.processGroup(st, v, group[k:], nil, srcs[k:], nil, &fc)
			}
			continue
		}
		for i := 0; i < k; i++ {
			srcs[i], outs[i] = -1, kOut
		}
		if st != nil {
			p.processGroup(st, v, group[k:], gctx[k:], srcs[k:], outs[k:], &fc)
		} else {
			// No exact state: the whole group stopped at the lookup.
			fc.lap(stageIdentify)
			fc.span[stageDetect], fc.span[stageBlock] = SpanMissing, SpanMissing
		}
		p.traceGroup(s, si, v, gctx, srcs, outs, &fc)
	}
	if s.gate != nil {
		s.gated.Store(int64(s.gate.Tracked()))
		s.decays.Store(s.gate.Decays())
	}
	fc.flush(p, s)
	if fc.sampled {
		// One amortized observation per stage per sampled batch.
		nn := time.Duration(n)
		for stage := stageIdentify; stage < numStages; stage++ {
			p.lat[stage].observe(uint64(si), fc.dur[stage]/nn)
		}
	}
	// Last, so a reader that sees Processed cover a record also sees
	// every counter and mirror that record moved.
	p.C.Processed.Add(uint64(n))
}

// traceGroup builds the trace of every traced record of one victim
// group — outcome and source from the group's scratch, spans from the
// batch's ingest span and the group's pass wall times — and commits
// them as one flight-recorder group. A blocked hit never reached the
// detectors and a sketch-only record stopped at the gate, so those
// spans stay SpanMissing. The commit's own cost is kept out of the
// next group's identify span.
func (p *Pipeline) traceGroup(s *shard, si int, v topology.NodeID, ctxs []wire.TraceContext, srcs []int32, outs []Outcome, fc *batchCtx) {
	ts := s.traces[:0]
	for i := range ctxs {
		if ctxs[i].ID == 0 {
			continue
		}
		ts = append(ts, Trace{})
		t := &ts[len(ts)-1]
		t.begin(&ctxs[i], fc.t0, int64(v), int32(si))
		t.Outcome = outs[i]
		t.Ingest, t.Identify, t.Detect, t.Block = fc.span[stageIngest], fc.span[stageIdentify], fc.span[stageDetect], fc.span[stageBlock]
		switch src := srcs[i]; {
		case src >= 0:
			t.Source = int64(src)
		case src <= srcBlocked:
			t.Source = int64(srcBlocked - src)
		}
		switch t.Outcome {
		case OutcomeBlockedHit:
			t.Detect = SpanMissing
		case OutcomeSuppressed:
			t.Detect, t.Block = SpanMissing, SpanMissing
		}
	}
	s.traces = ts
	p.commitTraces(ts)
	fc.tMark = time.Now()
}

// gateRecord runs one record of a destination without exact state
// through the admission gate. It returns nil when the record stays
// sketch-only (tallied, maybe buffered, suppressed), or the freshly
// materialized victimState when this record crossed the admission
// threshold — after replaying the slot's earlier buffered records
// through the exact path (see sketch.Gate for the replay contract).
// The crossing record itself is not replayed; the caller processes it
// (and the rest of its group) normally.
func (p *Pipeline) gateRecord(s *shard, v topology.NodeID, rec wire.Record, fc *batchCtx) *victimState {
	if !s.gate.Offer(uint64(v), rec) {
		fc.suppressed++
		return nil
	}
	if len(s.victims) >= sketch.GateSlots {
		// At the per-shard victim-state cap: keep tallying sketch-side
		// until the TTL sweep frees a slot.
		fc.deferred++
		return nil
	}
	st := p.materialize(s, v)
	fc.admitted++
	if buf := s.gate.Admit(uint64(v)); len(buf) > 0 {
		fc.replayed += uint64(len(buf))
		srcs, _ := s.scratch(len(buf))
		p.processGroup(st, v, buf, nil, srcs, nil, fc)
	}
	return st
}

// materialize creates and registers a victim's exact state. The caller
// must have checked p.schemeErr.
func (p *Pipeline) materialize(s *shard, v topology.NodeID) *victimState {
	st := p.newVictimState(v)
	s.mu.Lock()
	s.victims[v] = st
	s.mu.Unlock()
	return st
}

// processGroup runs one victim group through the three exact passes —
// identify, detect, block — accumulating tallies and pass timings into
// fc. srcs is the caller's per-record scratch, len(group) long. When
// ctxs is non-nil the group is traced: outs (also len(group)) receives
// each record's outcome, and a block decided on a traced record feeds
// the send-to-block detection latency. Called from processBatch per
// partitioned group and from gateRecord for admission replays.
func (p *Pipeline) processGroup(st *victimState, v topology.NodeID, group []wire.Record, ctxs []wire.TraceContext, srcs []int32, outs []Outcome, fc *batchCtx) {
	now := p.cfg.Now()
	st.lastSeen.Store(now)

	// Pass A: identify the whole group under one identifier lock,
	// then prefilter already-blocked sources (skipped entirely while
	// the blocklist is empty — the steady state).
	id := st.ident.Lock()
	for k := range group {
		if src, ok := id.ObserveMF(group[k].MF); ok {
			srcs[k] = int32(src)
			fc.identified++
		} else {
			srcs[k] = -1
			fc.undecodable++
		}
	}
	st.ident.Unlock()
	if !p.bl.Empty() {
		for k, src := range srcs {
			if src >= 0 && p.bl.BlockedAt(topology.NodeID(src), now) {
				srcs[k] = srcBlocked - src
				fc.blockedHits++
			}
		}
	}
	if ctxs != nil {
		for k, src := range srcs {
			switch {
			case src >= 0:
				outs[k] = OutcomeIdentified
			case src == -1:
				outs[k] = OutcomeUndecodable
			default:
				outs[k] = OutcomeBlockedHit
			}
		}
	}
	if fc.timed {
		fc.lap(stageIdentify)
	}

	// Pass B: feed both detectors under one lock each. Blocked
	// records skip the detectors (dropped upstream of the victim);
	// undecodable ones still count toward its arrival process.
	cu := st.cusumL.LockInner()
	en := st.entropyL.LockInner()
	pk := &st.scratch
	newAlarm := st.alarmed.Load()
	alarmAt := -1
	var cuA, enA bool
	for k := range group {
		if srcs[k] <= srcBlocked {
			continue
		}
		pk.Hdr.Src = group[k].Src
		pk.Hdr.Proto = group[k].Proto
		cu.Observe(group[k].T, pk)
		en.Observe(group[k].T, pk)
		if !newAlarm && (cu.Alarmed() || en.Alarmed()) {
			newAlarm, alarmAt = true, k
			cuA, enA = cu.Alarmed(), en.Alarmed()
		}
	}
	st.entropyL.UnlockInner()
	st.cusumL.UnlockInner()
	if newAlarm && !st.alarmed.Load() {
		st.alarmed.Store(true)
		fc.alarms++
		p.journalAlarm(now, v, cuA, enA)
		if ctxs != nil {
			outs[alarmAt] = OutcomeAlarm
		}
	}
	if fc.timed {
		fc.lap(stageDetect)
	}

	// Pass C: once the victim's alarm latch is set, block every
	// group source over threshold that isn't blocked already.
	if st.alarmed.Load() {
		id := st.ident.Lock()
		for k := range srcs {
			if srcs[k] < 0 {
				continue
			}
			src := topology.NodeID(srcs[k])
			if cnt := id.Count(src); cnt > p.cfg.BlockThreshold && !p.bl.BlockedAt(src, now) {
				until := filter.Permanent
				if p.cfg.BlockTTL > 0 {
					until = now + p.cfg.BlockTTL.Nanoseconds()
				}
				p.bl.BlockUntilFor(src, until, v)
				fc.blocks++
				p.journalBlock(now, v, src, cnt, until, id)
				if ctxs != nil {
					outs[k] = OutcomeBlock
					if ctxs[k].Sent > 0 {
						// True send-to-block latency: the exporter's original
						// send stamp survives forwarding, so this holds across
						// owner changes and cluster hops.
						p.observeDetection(uint64(v), now-ctxs[k].Sent)
					}
				}
			}
		}
		st.ident.Unlock()
	}
	if fc.timed {
		fc.lap(stageBlock)
	}
}

// journalAlarm records a victim's first detector firing, from the alarm
// states the detect pass captured while it held the detector locks.
func (p *Pipeline) journalAlarm(now int64, victim topology.NodeID, cuAlarmed, enAlarmed bool) {
	if p.cfg.Journal == nil {
		return
	}
	detail := "cusum"
	switch {
	case cuAlarmed && enAlarmed:
		detail = "cusum+entropy"
	case enAlarmed:
		detail = "entropy"
	}
	p.cfg.Journal.Emit(Event{
		T: now, Type: EventAlarm,
		Victim: int64(victim), Source: -1,
		Detail: detail,
	})
}

// journalBlock records an auto-block with the victim's top-k identified
// sources at block time as evidence. id is the victim's inner
// identifier, already locked by the block pass.
func (p *Pipeline) journalBlock(now int64, victim, src topology.NodeID, cnt, until int64, id *traceback.DDPMIdentifier) {
	if p.cfg.Journal == nil {
		return
	}
	top := make([]SourceCount, 0, p.cfg.JournalTopK)
	for _, n := range id.TopSources(p.cfg.JournalTopK) {
		top = append(top, SourceCount{Node: int64(n), Count: id.Count(n)})
	}
	p.cfg.Journal.Emit(Event{
		T: now, Type: EventBlock,
		Victim: int64(victim), Source: int64(src),
		Count: cnt, Until: until, Top: top,
	})
}

// expireBlocks prunes lapsed blocklist entries, journaling each as a
// block-expired event.
func (p *Pipeline) expireBlocks(now int64) {
	if p.cfg.Journal == nil {
		p.bl.Expire(now)
		return
	}
	for _, e := range p.bl.ExpireEntries(now) {
		p.cfg.Journal.Emit(Event{
			T: now, Type: EventBlockExpired,
			Victim: int64(e.Victim), Source: int64(e.Node), Until: e.Until,
		})
	}
}

// newVictimState builds a victim's exact state from the scheme cached
// at New. The caller must have checked p.schemeErr.
func (p *Pipeline) newVictimState(victim topology.NodeID) *victimState {
	st := &victimState{
		ident: traceback.NewSyncDDPMIdentifier(p.scheme, victim),
		cusum: detect.Synchronized(detect.NewCUSUM(p.cfg.CUSUMWindow, p.cfg.CUSUMSlack, p.cfg.CUSUMThreshold)),
	}
	if p.cfg.EntropyWindow > 0 {
		st.entropy = detect.Synchronized(detect.NewEntropyDetector(p.cfg.EntropyWindow, p.cfg.EntropyDelta))
	} else {
		st.entropy = nopDetector{}
	}
	st.cusumL = st.cusum.(detect.InnerLocker)
	st.entropyL = st.entropy.(detect.InnerLocker)
	st.lastSeen.Store(p.cfg.Now())
	return st
}

// sweepShard retires every victim on the shard idle past VictimTTL:
// its exact state is dropped after a final snapshot goes to the
// journal and the victim-expired hook, while blocklist entries and
// past journal events survive. Renewed traffic re-materializes the
// victim through the admission gate. Runs on the shard worker — the
// single writer of the victim map — with no pipeline locks held when
// the hook fires.
func (p *Pipeline) sweepShard(s *shard) {
	ttl := p.cfg.VictimTTL.Nanoseconds()
	if ttl <= 0 {
		return
	}
	now := p.cfg.Now()
	var snaps []VictimSnapshot
	for v, st := range s.victims {
		if now-st.lastSeen.Load() < ttl {
			continue
		}
		snap := snapshotState(v, st)
		snap.Expired = true
		snaps = append(snaps, snap)
	}
	if len(snaps) == 0 {
		return
	}
	s.mu.Lock()
	for i := range snaps {
		delete(s.victims, snaps[i].Victim)
	}
	s.mu.Unlock()
	p.C.VictimsExpired.Add(uint64(len(snaps)))
	hook := p.victimExpired.Load()
	for i := range snaps {
		snap := &snaps[i]
		if p.cfg.Journal != nil {
			p.cfg.Journal.Emit(Event{
				T: now, Type: EventVictimExpired,
				Victim: int64(snap.Victim), Source: -1,
				Count: snap.Identified(),
			})
		}
		if hook != nil {
			(*hook)(*snap)
		}
	}
}

// sweepLoop ticks TTL sweeps on real time. Enqueues are non-blocking:
// a shard whose queue is full is processing batches, and the in-band
// check in run will sweep it anyway.
func (p *Pipeline) sweepLoop() {
	defer p.wg.Done()
	iv := p.cfg.VictimTTL / 2
	if iv < time.Second {
		iv = time.Second
	}
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-p.sweepQuit:
			return
		case <-t.C:
			p.mu.RLock()
			if !p.closed {
				for _, s := range p.shards {
					select {
					case s.ch <- batch{sweep: true}:
					default:
					}
				}
			}
			p.mu.RUnlock()
		}
	}
}

// SweepVictims synchronously runs one TTL sweep on every shard,
// returning once each worker has processed it — the deterministic
// entry point for fake-clock tests and admin tooling. No-op when
// VictimTTL is disabled or the pipeline is closed.
func (p *Pipeline) SweepVictims() {
	if p.cfg.VictimTTL <= 0 {
		return
	}
	done := make(chan struct{}, len(p.shards))
	sent := 0
	p.mu.RLock()
	if !p.closed {
		for _, s := range p.shards {
			s.ch <- batch{sweep: true, done: done}
			sent++
		}
	}
	p.mu.RUnlock()
	for i := 0; i < sent; i++ {
		<-done
	}
}

// SetVictimExpiredHook registers fn to receive the final snapshot
// (Expired set) of every victim the TTL sweep retires. It is called
// from the shard worker goroutine with no pipeline locks held; keep it
// non-blocking. Set it once before traffic; nil clears it.
func (p *Pipeline) SetVictimExpiredHook(fn func(VictimSnapshot)) {
	if fn == nil {
		p.victimExpired.Store(nil)
		return
	}
	p.victimExpired.Store(&fn)
}

// state looks a victim's state up across shards (admin plane).
func (p *Pipeline) state(victim topology.NodeID) *victimState {
	if len(p.shards) == 0 || victim < 0 {
		return nil
	}
	s := p.shards[int(victim)%len(p.shards)]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.victims[victim]
}

// Alarmed reports whether the victim's detectors have fired.
func (p *Pipeline) Alarmed(victim topology.NodeID) bool {
	st := p.state(victim)
	return st != nil && (st.cusum.Alarmed() || st.entropy.Alarmed())
}

// AlarmLatched reports whether the victim's alarm latch has ever set —
// the stable "this victim came under attack" bit that journal alarm
// events and /victims report, immune to a detector de-alarming as its
// window slides on.
func (p *Pipeline) AlarmLatched(victim topology.NodeID) bool {
	st := p.state(victim)
	return st != nil && st.alarmed.Load()
}

// TopSources returns the victim's k most frequently identified
// sources (empty before the victim's first record). Non-positive k is
// an admin-plane input; it clamps to an empty result rather than
// panicking downstream.
func (p *Pipeline) TopSources(victim topology.NodeID, k int) []topology.NodeID {
	if k <= 0 {
		return nil
	}
	st := p.state(victim)
	if st == nil {
		return nil
	}
	return st.ident.TopSources(k)
}

// SourcesAbove returns the victim's sources identified more than
// threshold times. A negative threshold is an admin-plane input that
// would otherwise select every source ever seen; it clamps to empty.
func (p *Pipeline) SourcesAbove(victim topology.NodeID, threshold int64) []topology.NodeID {
	if threshold < 0 {
		return nil
	}
	st := p.state(victim)
	if st == nil {
		return nil
	}
	return st.ident.SourcesAbove(threshold)
}

// Victims lists every victim node the pipeline has state for, sorted
// by node id so admin output is deterministic.
func (p *Pipeline) Victims() []topology.NodeID {
	var out []topology.NodeID
	for _, s := range p.shards {
		s.mu.Lock()
		for v := range s.victims {
			out = append(out, v)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// VictimReport is the admin-plane view of one victim's state (the
// /victims endpoint and `ddpmd status`).
type VictimReport struct {
	Node        int64         `json:"node"`
	Alarmed     bool          `json:"alarmed"` // the latch, not the live detector
	Identified  int64         `json:"identified"`
	Undecodable int64         `json:"undecodable"`
	LastSeen    int64         `json:"last_seen_unix_nano"` // cfg.Now() of the latest record
	TopSources  []SourceCount `json:"top_sources"`
}

// VictimReports builds per-victim reports with up to k top sources
// each, sorted by node id. k <= 0 yields reports with no top-source
// evidence.
func (p *Pipeline) VictimReports(k int) []VictimReport {
	victims := p.Victims()
	out := make([]VictimReport, 0, len(victims))
	for _, v := range victims {
		st := p.state(v)
		if st == nil { // raced a concurrent reset; skip
			continue
		}
		r := VictimReport{
			Node:        int64(v),
			Alarmed:     st.alarmed.Load(),
			Identified:  st.ident.Observed(),
			Undecodable: st.ident.Undecodable(),
			LastSeen:    st.lastSeen.Load(),
		}
		if k > 0 {
			r.TopSources = make([]SourceCount, 0, k)
			for _, n := range st.ident.TopSources(k) {
				r.TopSources = append(r.TopSources, SourceCount{Node: int64(n), Count: st.ident.Count(n)})
			}
		}
		out = append(out, r)
	}
	return out
}

// Snapshot copies the counters and derived gauges. It also prunes
// lapsed blocklist entries (journaling each expiry) so ActiveBlocks
// reflects live blocks only.
func (p *Pipeline) Snapshot() Snapshot {
	p.expireBlocks(p.cfg.Now())
	snap := Snapshot{
		Dropped:           p.C.Dropped.Load(),
		RejectedClosed:    p.C.RejectedClosed.Load(),
		TopoMismatch:      p.C.TopoMismatch.Load(),
		BadVictim:         p.C.BadVictim.Load(),
		Processed:         p.C.Processed.Load(),
		Identified:        p.C.Identified.Load(),
		Undecodable:       p.C.Undecodable.Load(),
		BlockedHits:       p.C.BlockedHits.Load(),
		Alarms:            p.C.Alarms.Load(),
		Blocks:            p.C.Blocks.Load(),
		SketchSuppressed:  p.C.SketchSuppressed.Load(),
		SketchReplayed:    p.C.SketchReplayed.Load(),
		SketchDeferred:    p.C.SketchDeferred.Load(),
		VictimsAdmitted:   p.C.VictimsAdmitted.Load(),
		VictimsExpired:    p.C.VictimsExpired.Load(),
		VictimsDetached:   p.C.VictimsDetached.Load(),
		SchemeUnbuildable: p.C.SchemeUnbuildable.Load(),
		ActiveBlocks:      p.bl.Len(),
	}
	// Accepted is derived rather than counted: every rejection path
	// already has a counter, so accepted = ingested − rejections.
	// Loading Ingested after the rejection counters keeps the subtrahend
	// a prefix of it under concurrent submits (no uint64 wraparound); a
	// racing scrape may transiently overcount Accepted by in-flight
	// submissions, which monotone-counter consumers tolerate.
	snap.Ingested = p.C.Ingested.Load()
	snap.Accepted = snap.Ingested - snap.TopoMismatch - snap.BadVictim - snap.RejectedClosed - snap.Dropped
	for _, s := range p.shards {
		snap.QueueDepths = append(snap.QueueDepths, len(s.ch))
		snap.ShardProcessed = append(snap.ShardProcessed, s.processed.Load())
		snap.ShardIdentified = append(snap.ShardIdentified, s.identified.Load())
		snap.ShardDropped = append(snap.ShardDropped, s.dropped.Load())
		gated := s.gated.Load()
		snap.ShardGatedVictims = append(snap.ShardGatedVictims, gated)
		snap.SketchHeavySlots += gated
		snap.SketchDecays += s.decays.Load()
		s.mu.Lock()
		snap.VictimStates += len(s.victims)
		s.mu.Unlock()
	}
	return snap
}

// StageLatency returns a merged snapshot of one stage's histogram in
// the log2-nanosecond domain plus the exact nanosecond sum, or nil
// when latency recording is disabled. Stage indexes follow StageNames.
func (p *Pipeline) StageLatency(stage int) (h *stats.Histogram, sumNS int64) {
	if !p.sampleOn || stage < 0 || stage >= numStages {
		return nil, 0
	}
	return p.lat[stage].hist.Snapshot(), p.lat[stage].sumNS.Load()
}

// StageExemplars returns the nonzero exemplar trace ids currently
// stamped on one stage's histogram bins, or nil when latency recording
// is disabled. Every id resolves in the flight recorder until the ring
// evicts its trace. Stage indexes follow StageNames.
func (p *Pipeline) StageExemplars(stage int) []uint64 {
	if !p.sampleOn || stage < 0 || stage >= numStages {
		return nil
	}
	return p.lat[stage].hist.ExemplarIDs()
}

// nopDetector disables a detector slot.
type nopDetector struct{}

func (nopDetector) Name() string                        { return "nop" }
func (nopDetector) Observe(eventq.Time, *packet.Packet) {}
func (nopDetector) Alarmed() bool                       { return false }
func (nopDetector) AlarmedAt() (t eventq.Time)          { return t }

func (n nopDetector) LockInner() detect.Detector { return n }
func (nopDetector) UnlockInner()                 {}
