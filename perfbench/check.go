package main

import (
	"fmt"
	"strings"

	"repro/internal/marking"
	"repro/internal/topology"
	"repro/internal/traceback"
	"repro/internal/wire"
)

// tally is one victim's expected or observed identification state.
type tally struct {
	src   map[topology.NodeID]int64
	undec int64
}

// expectedTallies runs the offline DDPM identifier over every record
// the stream offered, each counted as often as it was offered.
func expectedTallies(c *corpus, s *stream) (map[topology.NodeID]*tally, error) {
	scheme, err := marking.NewDDPM(c.net)
	if err != nil {
		return nil, err
	}
	ids := map[topology.NodeID]*traceback.DDPMIdentifier{}
	out := map[topology.NodeID]*tally{}
	for _, v := range c.victims {
		ids[v] = traceback.NewDDPMIdentifier(scheme, v)
		out[v] = &tally{src: map[topology.NodeID]int64{}}
	}
	add := func(rec wire.Record, n int64) error {
		t := out[rec.Victim]
		if t == nil {
			return fmt.Errorf("check: record for unexpected victim %d", rec.Victim)
		}
		if src, ok := ids[rec.Victim].ObserveMF(rec.MF); ok {
			t.src[src] += n
		} else {
			t.undec += n
		}
		return nil
	}
	if c.keep == nil {
		// Flood: base record i went out once per full pass, plus once
		// more if the last, partial pass reached it.
		L := uint64(c.passLen)
		full, part := int64(s.pos/L), int(s.pos%L)
		for i, rec := range c.base {
			n := full
			if i < part {
				n++
			}
			if err := add(rec, n); err != nil {
				return nil, err
			}
		}
	}
	nv := len(c.victims)
	for i, k := range s.keepK {
		for j := 0; j < k; j++ {
			if err := add(c.keep[(j%keepPerVict)*nv+i], 1); err != nil {
				return nil, err
			}
		}
	}
	for j, inj := range c.injections {
		for _, rec := range inj.recs[:s.injDone[j]] {
			if err := add(rec, 1); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// checker collects failed checks; an empty list is a pass.
type checker struct{ fails []string }

func (ck *checker) failf(format string, args ...any) {
	ck.fails = append(ck.fails, fmt.Sprintf(format, args...))
}

// checkTallies compares every checked victim's tallies at its owner
// with the offline identifier, and requires that no other member holds
// exact state for it.
func (ck *checker) checkTallies(c *corpus, s *stream, f *fleet) {
	want, err := expectedTallies(c, s)
	if err != nil {
		ck.failf("%v", err)
		return
	}
	for _, v := range c.victims {
		o := f.owner(v)
		for i, m := range f.members {
			snap, ok := m.p.ExportVictim(v)
			if i != o {
				if ok {
					ck.failf("victim %d: member %d holds state but member %d owns it", v, i, o)
				}
				continue
			}
			if !ok {
				ck.failf("victim %d: owner %d holds no state", v, o)
				continue
			}
			got := tally{src: map[topology.NodeID]int64{}, undec: snap.Undecodable}
			for _, sc := range snap.Sources {
				got.src[topology.NodeID(sc.Node)] = sc.Count
			}
			if fmt.Sprint(got.src) != fmt.Sprint(want[v].src) || got.undec != want[v].undec {
				ck.failf("victim %d: owner tallies differ from the offline identifier (identified %d vs %d, undecodable %d vs %d)",
					v, sum(got.src), sum(want[v].src), got.undec, want[v].undec)
			}
		}
	}
	states := 0
	for _, m := range f.members {
		states += m.p.Snapshot().VictimStates
	}
	if states > len(c.victims) {
		ck.failf("%d victim states held, more than the %d victims attacked", states, len(c.victims))
	}
}

func sum(m map[topology.NodeID]int64) int64 {
	var n int64
	for _, v := range m {
		n += v
	}
	return n
}

// blocklistsEqual reports whether every member blocks exactly want.
func blocklistsEqual(f *fleet, want []topology.NodeID) (bool, string) {
	for i, m := range f.members {
		var got []topology.NodeID
		for _, e := range m.p.Blocklist().Snapshot() {
			got = append(got, e.Node)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return false, fmt.Sprintf("member %d blocks %d nodes %v, want the %d zombies %v",
				i, len(got), short(got), len(want), short(want))
		}
	}
	return true, ""
}

func short(ns []topology.NodeID) string {
	s := fmt.Sprint(ns)
	if len(s) > 120 {
		s = s[:120] + "…"
	}
	return s
}

// ledger is the run's record accounting from public counters.
type ledger struct {
	offered, delivered, lost, resent, reconnects uint64
	ingested, dropped, rejectedClosed            uint64
	invalid, workerDone                          uint64
	processed, identified, blockedHits           uint64
	sketchSuppressed, sketchAdmitted             uint64
	victimStates                                 int
	fwOut, fwIn, fwDropped, fwLost, fwSuppress   uint64
	gossipFails                                  uint64
	ringFlaps                                    int
}

func readLedger(g *gen, f *fleet) ledger {
	var l ledger
	for _, c := range g.clients {
		l.offered += c.Sent()
		l.delivered += c.Delivered()
		l.lost += c.Lost()
		l.resent += c.Resent()
		l.reconnects += c.Reconnects()
	}
	l.offered += g.direct
	l.delivered += g.direct
	for _, m := range f.members {
		s := m.p.Snapshot()
		l.ingested += s.Ingested
		l.dropped += s.Dropped
		l.rejectedClosed += s.RejectedClosed
		l.invalid += s.TopoMismatch + s.BadVictim
		l.workerDone += s.Identified + s.Undecodable + s.SketchSuppressed + s.SketchDeferred +
			s.SchemeUnbuildable - s.SketchReplayed
		l.processed += s.Processed
		l.identified += s.Identified
		l.blockedHits += s.BlockedHits
		l.sketchSuppressed += s.SketchSuppressed
		l.sketchAdmitted += s.VictimsAdmitted
		l.victimStates += s.VictimStates
	}
	for _, st := range f.status() {
		l.fwOut += st.ForwardedOut
		l.fwIn += st.ForwardedIn
		l.fwDropped += st.ForwardDropped
		l.fwLost += st.ForwardLost
		l.fwSuppress += st.ForwardSuppress
		l.gossipFails += st.GossipFails
		if st.RingVersion != 1 || st.Alive != len(f.members) {
			l.ringFlaps++
		}
	}
	return l
}

func (l ledger) completed() uint64 { return l.workerDone + l.invalid + l.fwSuppress }
func (l ledger) shed() uint64 {
	return l.lost + l.dropped + l.fwDropped + l.fwLost + l.rejectedClosed
}

// balance returns records unaccounted for and the overshoot of
// completed + shed over offered. The forwarding gate counts records it
// buffers in ForwardSuppress and forwards them again on admission, with
// no replay counter, so the overshoot is that replay, reported rather
// than hidden.
func (l ledger) balance() (unaccounted, replayGap uint64) {
	acc := l.completed() + l.shed()
	if acc < l.offered {
		return l.offered - acc, 0
	}
	return 0, acc - l.offered
}

func (l ledger) String() string {
	un, gap := l.balance()
	var b strings.Builder
	fmt.Fprintf(&b, "ledger  wire:     offered %d = delivered %d + lost %d (resent %d, reconnects %d)\n",
		l.offered, l.delivered, l.lost, l.resent, l.reconnects)
	if l.fwOut+l.fwSuppress+l.fwIn > 0 {
		fmt.Fprintf(&b, "ledger  cluster:  forwarded out %d, in %d, dropped %d, lost %d, gate-suppressed %d\n",
			l.fwOut, l.fwIn, l.fwDropped, l.fwLost, l.fwSuppress)
	}
	fmt.Fprintf(&b, "ledger  pipeline: ingested %d = completed by workers %d + invalid %d + dropped %d + rejected-closed %d\n",
		l.ingested, l.workerDone, l.invalid, l.dropped, l.rejectedClosed)
	fmt.Fprintf(&b, "ledger  total:    offered %d = completed %d + shed %d - replay gap %d + unaccounted %d",
		l.offered, l.completed(), l.shed(), gap, un)
	return b.String()
}
