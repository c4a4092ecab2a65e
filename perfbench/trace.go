package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
)

// span is one timed call the benchmark made into a module: name,
// start, end (monotonic ns), the span that caused it, and the batch it
// belongs to. A layer's self time is its spans' durations minus the
// parts their child spans cover.
type span struct {
	Name   string `json:"name"`
	Batch  uint64 `json:"batch"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory; they are written out
// once the run ends.
type tracer struct {
	spans []span
	open  int // root span new child spans attach to
}

func (t *tracer) add(name string, batch uint64, parent int, start, end int64) int {
	t.spans = append(t.spans, span{Name: name, Batch: batch, Parent: parent, Start: start, End: end})
	return len(t.spans) - 1
}

// selfTimes sums each span name's self time over spans starting at or
// after index from.
func (t *tracer) selfTimes(from int) map[string]int64 {
	self := map[string]int64{}
	for i := from; i < len(t.spans); i++ {
		sp := t.spans[i]
		if sp.End <= sp.Start {
			continue // root left open by a failed drain
		}
		d := sp.End - sp.Start
		self[sp.Name] += d
		if sp.Parent >= from {
			self[t.spans[sp.Parent].Name] -= d
		}
	}
	return self
}

// write stores up to limit spans as JSON lines.
func (t *tracer) write(path string, limit int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.spans[:min(limit, len(t.spans))] {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rtStats is a runtime/metrics reading taken at a phase boundary.
type rtStats struct {
	allocObjects, allocBytes uint64
	gcPauseNS                uint64
	goroutines               uint64
	sched                    *metrics.Float64Histogram
}

func readRuntime() rtStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtStats{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		goroutines:   s[2].Value.Uint64(),
		sched:        s[3].Value.Float64Histogram(),
		gcPauseNS:    ms.PauseTotalNs,
	}
}

// schedP99 returns the 99th percentile scheduling latency, in seconds,
// of the goroutines made runnable between two readings (bucket upper
// bound).
func schedP99(a, b rtStats) float64 {
	counts := make([]uint64, len(b.sched.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(float64(total)*0.99 + 0.5)
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if up := b.sched.Buckets[i+1]; !math.IsInf(up, 1) {
				return up
			}
			return b.sched.Buckets[i]
		}
	}
	return 0
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// quantile returns the q-quantile of xs (sorted in place), by the
// nearest-rank rule.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
