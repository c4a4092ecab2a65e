package main

import (
	"sort"

	"repro/internal/eventq"
	"repro/internal/wire"
)

// stream cuts the corpus into 1024-record batches: the base tape pass
// after pass (ticks shifted per pass on the flood, keep-alive slots
// filled per victim on the scan) with, while an injection runs, its
// records mixed in evenly. It also keeps the counts the correctness
// check needs to know exactly which records were offered.
type stream struct {
	c *corpus

	pos     uint64 // base-tape records emitted
	keepK   []int  // keep-alive records emitted per scan victim
	tick    []eventq.Time
	inj     *injection
	injNext int
	injBase eventq.Time // flood: tick shift of the running injection
	injDone []int       // records emitted per injection
	running int         // index of the running injection, -1 when idle
	queue   []int
	scratch []wire.Record

	victimIdx map[int32]int // scan victim id -> index
}

func newStream(c *corpus) *stream {
	s := &stream{
		c:       c,
		keepK:   make([]int, len(c.victims)),
		tick:    make([]eventq.Time, len(c.victims)),
		injDone: make([]int, len(c.injections)),
		running: -1,
	}
	if c.keep != nil {
		s.victimIdx = map[int32]int{}
		for i, v := range c.victims {
			s.victimIdx[int32(v)] = i
		}
	}
	return s
}

// inject queues injection i; injections run one after another.
func (s *stream) inject(i int) { s.queue = append(s.queue, i) }

// next fills dst with the next batch and appends to marks the campaigns
// whose first attack record is in it.
func (s *stream) next(dst []wire.Record, marks []int) ([]wire.Record, []int) {
	dst = dst[:0]
	if s.inj == nil && len(s.queue) > 0 {
		s.running, s.queue = s.queue[0], s.queue[1:]
		s.inj = &s.c.injections[s.running]
		s.injNext = 0
		s.injBase = eventq.Time(s.pos/uint64(s.c.passLen)) * s.c.passTicks
	}
	nInj := 0
	if s.inj != nil {
		nInj = min(s.inj.per, len(s.inj.recs)-s.injNext)
	}
	if nInj == 0 {
		return s.appendBase(dst, batchSize), marks
	}
	// Mix the injected records in at even spacing.
	s.scratch = s.appendBase(s.scratch[:0], batchSize-nInj)
	stride := batchSize / nInj
	b := 0
	for k := 0; k < batchSize; k++ {
		if k%stride != 0 || k/stride >= nInj {
			dst = append(dst, s.scratch[b])
			b++
			continue
		}
		rec := s.inj.recs[s.injNext]
		if s.c.keep != nil {
			i := s.victimIdx[int32(rec.Victim)]
			s.tick[i] += attackStride
			rec.T = s.tick[i]
		} else {
			rec.T += s.injBase
		}
		for _, m := range s.inj.marks {
			if m.pos == s.injNext {
				marks = append(marks, m.camp)
			}
		}
		s.injNext++
		dst = append(dst, rec)
	}
	s.injDone[s.running] = s.injNext
	if s.injNext == len(s.inj.recs) {
		s.inj, s.running = nil, -1
	}
	return dst, marks
}

// appendBase appends the next n base-tape records.
func (s *stream) appendBase(dst []wire.Record, n int) []wire.Record {
	L := uint64(s.c.passLen)
	for n > 0 {
		pass, off := s.pos/L, int(s.pos%L)
		k := min(n, s.c.passLen-off)
		start := len(dst)
		dst = append(dst, s.c.base[off:off+k]...)
		if shift := eventq.Time(pass) * s.c.passTicks; shift != 0 {
			for j := start; j < len(dst); j++ {
				dst[j].T += shift
			}
		}
		// Keep-alive slots: the next record of that victim's cycle, on
		// the victim's own tick line.
		for q := sort.SearchInts(s.c.slots, off); q < len(s.c.slots) && s.c.slots[q] < off+k; q++ {
			j := start + s.c.slots[q] - off
			i := s.victimIdx[int32(dst[j].Victim)]
			rec := s.c.keep[(s.keepK[i]%keepPerVict)*len(s.c.victims)+i]
			s.keepK[i]++
			s.tick[i] += keepStride
			rec.T = s.tick[i]
			dst[j] = rec
		}
		s.pos += uint64(k)
		n -= k
	}
	return dst
}

// primer returns the scan's set-up primer: every keep-alive record
// once, on the victims' tick lines, in two halves of one batch each.
func (s *stream) primer() []wire.Record {
	n := len(s.c.victims)
	out := make([]wire.Record, 0, len(s.c.keep))
	for k := 0; k < keepPerVict; k++ {
		for i := 0; i < n; i++ {
			rec := s.c.keep[k*n+i]
			s.keepK[i]++
			s.tick[i] += keepStride
			rec.T = s.tick[i]
			out = append(out, rec)
		}
	}
	return out
}
