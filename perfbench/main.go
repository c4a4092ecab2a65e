// Command perfbench is ddpmd's end-to-end benchmark. It starts the
// daemon in-process on loopback — one instance, or a three-member
// cluster fleet — with `ddpmd serve`'s default settings, drives it from
// one generator goroutine over acked wire sessions with 1024-record
// frames, checks every output against the offline DDPM identifier, and
// prints each metric by name and unit.
//
//	bash perfbench/run.sh --workload flood --seed 1 --seconds 12 --trace 0
//
// A run is set-up (corpus generation, daemon or fleet start, every
// member seeing the full fleet alive, warm-up), a closed-loop capacity
// phase, and an open-loop latency phase at the workload's fixed offered
// rate. With --trace 0 the last line of standard output carries the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics
// of a separate traced run (see ladder.go). The lines before it are a
// human-readable report: every metric with its sample counts, the
// record ledger and the correctness verdict.
//
// Wall-clock throughput and latency (capacity_rps, lat_p50_ms,
// lat_p99_ms) are printed by every run and reported by the traced run
// as ungated per-layer metrics: on a 2-vCPU VM whose host is shared,
// hypervisor steal moves them by up to 40% between runs of the same
// code. The gated throughput is the same closed-loop phase counted per
// CPU-second the process got, which steal moves far less.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// workload is one traffic mix. rate is the open-loop offered rate, an
// absolute number: about 40-50% of the closed-loop capacity measured
// when the benchmark was defined on a 2-vCPU VM while co-tenants were
// busy (hypervisor steal near 20%), which is 25-30% of the capacity
// the same VM reaches when its host is quiet. Offered nearer to a
// capacity that halves under host load, latency is queueing noise.
type workload struct {
	name     string
	members  int     // daemons; more than one runs a cluster fleet
	sessions int     // exporter sessions, sprayed round-robin over the first members
	traced   bool    // every record carries a trace context
	scan     bool    // hypercube destination scan instead of the torus flood
	rate     float64 // records/s
}

var workloads = []workload{
	{name: "flood", members: 1, sessions: 1, rate: 1.8e6},
	{name: "flood-traced", members: 1, sessions: 1, traced: true, rate: 0.4e6},
	{name: "fleet", members: 3, sessions: 2, rate: 0.9e6},
	{name: "scan", members: 3, sessions: 2, scan: true, rate: 0.7e6},
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "flood", "workload: flood, flood-traced, fleet or scan")
	seed := flag.Uint64("seed", 1, "corpus seed")
	seconds := flag.Int("seconds", 12, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.Parse()
	var w workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w.name == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, d)
	} else {
		res, err = runEndToEnd(w, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
