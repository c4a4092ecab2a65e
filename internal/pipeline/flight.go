package pipeline

// The flight recorder: per-record span timelines for wire records that
// carried a trace context, kept in a fixed-size in-memory ring with
// tail-based sampling. Aggregate histograms (PR 4) say how long stages
// take; the recorder says what happened to one specific record between
// exporter send and block decision. Retention is decided at the *end*
// of a record's journey (tail sampling): traces that end in an alarm,
// a block, a blocked-source hit, a drop, a rejection or a stream
// resync are always retained, as is anything with a stage slower than
// the configured threshold; boring traces (identified or undecodable,
// fast) are sampled 1-in-N so the ring still carries baseline context.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Outcome classifies how a traced record's journey ended.
type Outcome uint8

const (
	OutcomeIdentified  Outcome = iota // decoded to a source, nothing notable
	OutcomeUndecodable                // MF decode rejected
	OutcomeBlockedHit                 // source already blocked; dropped pre-detector
	OutcomeAlarm                      // this record latched the victim's alarm
	OutcomeBlock                      // this record pushed its source over the auto-block threshold
	OutcomeDrop                       // shed at Submit: shard queue full
	OutcomeRejected                   // failed validation (topo mismatch, bad victim, closed)
	OutcomeResync                     // synthetic stream-level event: reader skipped to next magic
	OutcomeSuppressed                 // tallied sketch-only, below the admission threshold
	OutcomeForwarded                  // origin-side record of a traced record relayed to its owner
	OutcomeRingChange                 // synthetic cluster event: ownership ring rebuilt
	OutcomeGossip                     // synthetic cluster event: anti-entropy round
	OutcomeHandback                   // synthetic cluster event: victim detach / handback ship / seed
	OutcomeTakeover                   // synthetic cluster event: replica seeded on owner takeover
	OutcomeGateAdmit                  // synthetic cluster event: fwGate admitted a victim for forwarding
	numOutcomes
)

// outcomeNames are the JSON/admin-plane labels, in Outcome order.
var outcomeNames = [numOutcomes]string{
	"identified", "undecodable", "blocked_hit", "alarm", "block",
	"drop", "rejected", "resync", "suppressed",
	"forwarded", "ring_change", "gossip", "handback", "takeover", "gate_admit",
}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// OutcomeFromString resolves an admin-plane filter string; ok is false
// for unknown names.
func OutcomeFromString(s string) (Outcome, bool) {
	for i, n := range outcomeNames {
		if n == s {
			return Outcome(i), true
		}
	}
	return 0, false
}

// SpanMissing marks a span the record never reached (e.g. detect on a
// blocked-source hit, everything past ingest on a drop).
const SpanMissing int64 = -1

// Trace is one record's completed span timeline. It is a flat value
// type — committing one into the ring is a struct copy, no allocation.
//
// Span semantics (all nanoseconds):
//
//	Wire     exporter Send stamp → first daemon's Submit entry (or, for
//	         a forwarded record, → the origin's route decision):
//	         wall-clock delta across hosts; skew-prone, still invaluable
//	Forward  origin's route decision → owner's Submit entry (route →
//	         forward queue → wire → remote ingest); SpanMissing unless
//	         the record crossed a cluster forward hop
//	Ingest   Submit entry → shard worker dequeue (validation + queue wait)
//	Identify victim-state lookup + MF decode
//	Detect   CUSUM/entropy update + alarm latch
//	Block    blocklist consult (+ insertion and journaling on a block)
type Trace struct {
	ID      uint64
	Sent    int64 // exporter send time, unix nanos (0 = unknown)
	Start   int64 // Submit entry, unix nanos
	Victim  int64 // -1 for stream-level events
	Source  int64 // identified source; -1 when unknown/undecodable
	Shard   int32
	Outcome Outcome
	Origin  uint64 // forwarding member id for records that crossed a hop (0 = none)

	Wire, Forward, Ingest, Identify, Detect, Block int64 // spans; SpanMissing = not reached
}

// Total sums the daemon-side spans (Wire excluded: it crosses clocks).
func (t *Trace) Total() int64 {
	var sum int64
	for _, d := range [...]int64{t.Ingest, t.Identify, t.Detect, t.Block} {
		if d > 0 {
			sum += d
		}
	}
	return sum
}

// Interesting reports whether tail sampling must retain the trace
// regardless of the boring 1-in-N counter: any outcome beyond the
// ordinary identified/undecodable/suppressed triple, or any span over
// slowNS.
func (t *Trace) Interesting(slowNS int64) bool {
	if t.Outcome != OutcomeIdentified && t.Outcome != OutcomeUndecodable && t.Outcome != OutcomeSuppressed {
		return true
	}
	return slowNS > 0 && max(t.Wire, t.Forward, t.Ingest, t.Identify, t.Detect, t.Block) > slowNS
}

// FlightRecorder is the fixed-size ring of retained traces plus the
// tail-sampling policy and its accounting. Commit is called from shard
// workers and the ingest path; readers (the /debug/traces endpoint,
// SIGQUIT dumps, tests) snapshot under the same mutex. The mutex is
// uncontended in steady state: boring traces mostly return before
// touching it.
type FlightRecorder struct {
	sampleN uint64 // retain 1 in N boring traces (1 = all)
	slowNS  int64  // any span above this is always retained

	observed atomic.Uint64 // completed traces offered to Commit
	retained atomic.Uint64 // traces written into the ring
	sampled  atomic.Uint64 // boring traces retained by the 1-in-N sampler
	evicted  atomic.Uint64 // ring overwrites of a previously retained trace
	boring   atomic.Uint64 // boring-trace counter driving the sampler

	synthSeq atomic.Uint64 // synthetic ids for stream-level events

	mu   sync.Mutex
	ring []Trace
	next int
	full bool
}

// NewFlightRecorder builds a recorder holding up to size traces,
// retaining 1 in sampleN boring traces and everything with a span over
// slow. size <= 0 returns nil — the disabled recorder; every method is
// nil-safe on the hot path via the callers' nil checks.
func NewFlightRecorder(size, sampleN int, slow time.Duration) *FlightRecorder {
	if size <= 0 {
		return nil
	}
	if sampleN <= 0 {
		sampleN = 64
	}
	return &FlightRecorder{
		sampleN: uint64(sampleN),
		slowNS:  slow.Nanoseconds(),
		ring:    make([]Trace, size),
	}
}

// SampleN and SlowThresholdNS expose the policy for the admin plane.
func (r *FlightRecorder) SampleN() uint64        { return r.sampleN }
func (r *FlightRecorder) SlowThresholdNS() int64 { return r.slowNS }
func (r *FlightRecorder) Cap() int               { return len(r.ring) }

// Counters for /metrics.
func (r *FlightRecorder) Observed() uint64 { return r.observed.Load() }
func (r *FlightRecorder) Retained() uint64 { return r.retained.Load() }
func (r *FlightRecorder) Sampled() uint64  { return r.sampled.Load() }
func (r *FlightRecorder) Evicted() uint64  { return r.evicted.Load() }

// Commit offers one completed trace and reports whether tail sampling
// retained it. The caller's trace value is copied; no reference is
// kept.
func (r *FlightRecorder) Commit(t *Trace) bool {
	one := [1]Trace{*t}
	return r.CommitGroup(one[:]) == 1
}

// CommitGroup offers a batch of completed traces with exactly the
// retention and accounting of len(ts) sequential Commits, for one pass
// of the shared counters and one ring lock. The retained traces are
// moved, in order, to the front of ts and their count is returned; the
// recorder keeps no reference to ts.
func (r *FlightRecorder) CommitGroup(ts []Trace) int {
	if len(ts) == 0 {
		return 0
	}
	r.observed.Add(uint64(len(ts)))
	var boring uint64
	for i := range ts {
		if !ts[i].Interesting(r.slowNS) {
			boring++
		}
	}
	// Reserving the group's boring ticks in one Add serializes it
	// against concurrent committers like N back-to-back Commits; phase
	// is the reserved range's position in the 1-in-N cycle.
	var phase uint64
	if boring > 0 {
		phase = (r.boring.Add(boring) - boring) % r.sampleN
	}
	kept, sampled := 0, uint64(0)
	for i := range ts {
		if !ts[i].Interesting(r.slowNS) {
			if phase++; phase != r.sampleN {
				continue
			}
			phase = 0
			sampled++
		}
		if kept != i {
			ts[kept] = ts[i]
		}
		kept++
	}
	if sampled > 0 {
		r.sampled.Add(sampled)
	}
	if kept == 0 {
		return 0
	}
	r.retained.Add(uint64(kept))
	var evicted uint64
	r.mu.Lock()
	for i := 0; i < kept; i++ {
		if r.full {
			evicted++
		}
		r.ring[r.next] = ts[i]
		r.next++
		if r.next == len(r.ring) {
			r.next = 0
			r.full = true
		}
	}
	r.mu.Unlock()
	if evicted > 0 {
		r.evicted.Add(evicted)
	}
	return kept
}

// CommitEvent retains a synthetic event (a stream-level resync or
// session loss, a cluster op) and returns its generated id; victim is
// -1 for events without one. Synthetic ids always carry the top bit — a
// reading hint, not a namespace: exporter ids are uniform 64-bit
// SplitMix64 values, so uniqueness across both kinds is probabilistic
// either way.
func (r *FlightRecorder) CommitEvent(outcome Outcome, now int64, stream uint64, victim int64) uint64 {
	id := wire.SplitMix64(r.synthSeq.Add(1)^stream) | 1<<63
	r.CommitEventWithID(id, outcome, now, victim)
	return id
}

// CommitEventWithID retains a synthetic event under a caller-supplied
// id — the cluster-op path, where the same operation committed on two
// nodes (a handback's detach, ship and seed) must share one id so the
// fleet trace fan-out stitches them into a single timeline.
func (r *FlightRecorder) CommitEventWithID(id uint64, outcome Outcome, now int64, victim int64) {
	t := Trace{
		ID: id, Start: now, Victim: victim, Source: -1, Shard: -1,
		Outcome: outcome,
		Wire:    SpanMissing, Forward: SpanMissing, Ingest: SpanMissing,
		Identify: SpanMissing, Detect: SpanMissing, Block: SpanMissing,
	}
	r.Commit(&t)
}

// TraceFilter selects traces for Snapshot. Start from AllTraces() and
// narrow; Victim/Source use MatchAny (-2) as the wildcard because -1
// is a real value (stream-level events).
type TraceFilter struct {
	Victim  int64 // MatchAny = any
	Source  int64 // MatchAny = any
	Outcome Outcome
	HasOut  bool   // filter by Outcome
	ID      uint64 // nonzero: exact trace id
	Limit   int    // max traces returned, newest first (0 = all)
}

// MatchAny is the wildcard for TraceFilter.Victim / Source.
const MatchAny int64 = -2

// AllTraces is the match-everything filter.
func AllTraces() TraceFilter { return TraceFilter{Victim: MatchAny, Source: MatchAny} }

// Snapshot returns retained traces matching f, newest first.
func (r *FlightRecorder) Snapshot(f TraceFilter) []Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	total := n
	if r.full {
		total = len(r.ring)
	}
	out := make([]Trace, 0, min(total, max(f.Limit, 16)))
	for i := 0; i < total; i++ {
		// Walk newest → oldest.
		idx := n - 1 - i
		if idx < 0 {
			idx += len(r.ring)
		}
		t := &r.ring[idx]
		if f.ID != 0 && t.ID != f.ID {
			continue
		}
		if f.Victim != MatchAny && f.Victim != t.Victim {
			continue
		}
		if f.Source != MatchAny && f.Source != t.Source {
			continue
		}
		if f.HasOut && f.Outcome != t.Outcome {
			continue
		}
		out = append(out, *t)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// Find returns the retained trace with the given id, if any.
func (r *FlightRecorder) Find(id uint64) (Trace, bool) {
	ts := r.Snapshot(TraceFilter{ID: id, Victim: MatchAny, Source: MatchAny, Limit: 1})
	if len(ts) == 0 {
		return Trace{}, false
	}
	return ts[0], true
}
