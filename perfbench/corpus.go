package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/loadgen"
	"repro/internal/marking"
	"repro/internal/topology"
	"repro/internal/traceback"
	"repro/internal/wire"
)

// batchSize is the records per Client.Send and per sealed frame.
const batchSize = 1024

// detectWindow is the serve default CUSUM and entropy window in ticks.
const detectWindow = 500

// Flood corpus shape. Main campaigns are replayed for the whole run;
// fresh campaigns are injected one by one into the open-loop phase,
// each with a victim and zombies no earlier campaign used, so every
// time-to-block sample comes from a zombie nothing had blocked yet.
const (
	floodDim       = 16
	mainCampaigns  = 16
	freshCampaigns = 16
	campaignZombie = 3
	// campaignRate is how fast a fresh campaign's records arrive, in
	// records/s, whatever the workload's offered rate: time-to-block is
	// then paced by the campaign, so a millisecond host stall moves it
	// by a few per cent only.
	campaignRate = 12000
)

var floodTopo = core.TopoSpec{Kind: "torus", Dims: []int{floodDim, floodDim}}

// Scan corpus shape: a 2^21-id destination scan on the 16-cube (the
// largest hypercube a 16-bit DDPM marking field covers). 1/32 of the
// ids are in-fabric and meet the admission gates; the rest fail victim
// validation. A pass hits each in-fabric id once, so a run must stay
// under sketchAdmit passes for the scan to stay a scan: at 2^21 ids a
// pass is long enough that a run makes about 20.
// Eight attacked victims ride along: a keep-alive trickle keeps them
// admitted at every gate, and an attack burst in the open-loop phase
// gets their sources blocked.
const (
	scanCubeDim  = 16
	scanIDs      = 1 << 21
	sketchAdmit  = 64 // `serve -sketch-admit` default
	scanVictims  = 8
	keepPerVict  = 128 // 64 per ingress member: the admission threshold at each gate
	keepSources  = 64
	attackPerVic = 512 // 128 per source, over the block threshold of 100
	attackSrcs   = 4
	keepStride   = detectWindow // ticks between keep-alive records: one per detector window
	attackStride = 8            // ticks between attack records: about 62 per window
)

// campaign is one attack whose blocks the open-loop phase times.
type campaign struct {
	victim  topology.NodeID
	zombies []topology.NodeID
}

// injection is a record run mixed into the stream, per records per
// batch, during the open-loop phase (per 0: paced at campaignRate).
// marks are the positions of each campaign's first attack record,
// where its time-to-block starts.
type injection struct {
	recs  []wire.Record
	per   int
	marks []mark
}

type mark struct{ pos, camp int }

// corpus is everything a workload sends, generated from the seed.
type corpus struct {
	net    topology.Network
	topoID uint32

	// base is one pass of the replayed tape, passLen records long;
	// passTicks shifts each pass's ticks past the previous one (flood).
	// On the scan, slots are the positions of the keep-alive records
	// (base holds victim i's first one there as a placeholder).
	base      []wire.Record
	passLen   int
	passTicks eventq.Time
	slots     []int

	camps      []campaign
	injections []injection
	zombieSet  []topology.NodeID // every zombie the blocklists must hold at the end
	victims    []topology.NodeID // every victim whose tallies are checked

	// Scan: keep-alive records, victim-major per round (keep[k*8+i] is
	// victim i's k-th), cycled into the passes and sent whole as the
	// set-up primer.
	keep []wire.Record
}

// genCorpus builds the workload's corpus; it is part of set-up.
func genCorpus(w workload, seed uint64) (*corpus, error) {
	if w.scan {
		return genScan(seed)
	}
	return genFlood(seed)
}

// parallel runs fn(0..n-1) on GOMAXPROCS workers and returns the
// first error.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int, n) // holds every index, so filling never blocks
	for i := range n {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func genFlood(seed uint64) (*corpus, error) {
	net, err := core.BuildTopology(floodTopo)
	if err != nil {
		return nil, err
	}
	scheme, err := marking.NewDDPM(net)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(int64(seed)))
	// Victim 0 is loadgen's "unset"; draw victims from the rest.
	perm := r.Perm(net.NumNodes() - 1)
	victim := func(i int) topology.NodeID { return topology.NodeID(perm[i] + 1) }

	mains := make([]*loadgen.Result, mainCampaigns)
	if err := parallel(mainCampaigns, func(i int) error {
		// No background traffic: replayed pass after pass, the same few
		// background senders would cross the block threshold.
		res, err := loadgen.Generate(loadgen.Scenario{
			Topo: floodTopo, Victim: victim(i), Zombies: campaignZombie,
			Seed: seed*1000 + uint64(i), Warmup: 1500, Attack: 3000, Background: 1e-12,
		})
		mains[i] = res
		return err
	}); err != nil {
		return nil, err
	}
	c := &corpus{net: net, topoID: mains[0].TopoID}
	used := map[topology.NodeID]bool{}
	for _, m := range mains {
		c.base = append(c.base, m.Records...)
		c.victims = append(c.victims, m.Victim)
		for _, z := range m.Zombies {
			used[z] = true
		}
	}
	// Interleave the campaigns by tick, as one fabric delivers them.
	sort.SliceStable(c.base, func(i, j int) bool { return c.base[i].T < c.base[j].T })
	c.passLen = len(c.base)
	// Whole detector windows per pass, so every replay and every
	// injected campaign meets the windows at the same phase.
	c.passTicks = (c.base[len(c.base)-1].T/detectWindow + 1) * detectWindow

	// Fresh campaigns: preview candidate seeds with a few-tick run
	// (it draws the same zombies), keep those disjoint from every
	// zombie so far, then generate the accepted ones in full.
	type pick struct {
		victim  topology.NodeID
		seed    uint64
		zombies []topology.NodeID
	}
	var picks []pick
	for cand := seed*1000 + 500; len(picks) < freshCampaigns; cand++ {
		if cand > seed*1000+999 {
			return nil, fmt.Errorf("corpus: too few disjoint zombie sets")
		}
		v := victim(mainCampaigns + len(picks))
		pre, err := loadgen.Generate(loadgen.Scenario{
			Topo: floodTopo, Victim: v, Zombies: campaignZombie, Seed: cand, Warmup: 1, Attack: 64,
		})
		if err != nil {
			return nil, err
		}
		disjoint := true
		for _, z := range pre.Zombies {
			disjoint = disjoint && !used[z]
		}
		if !disjoint {
			continue
		}
		for _, z := range pre.Zombies {
			used[z] = true
		}
		picks = append(picks, pick{victim: v, seed: cand, zombies: pre.Zombies})
	}
	c.camps = make([]campaign, len(picks))
	c.injections = make([]injection, len(picks))
	if err := parallel(len(picks), func(i int) error {
		res, err := loadgen.Generate(loadgen.Scenario{
			Topo: floodTopo, Victim: picks[i].victim, Zombies: campaignZombie,
			Seed: picks[i].seed, Warmup: 1000, Attack: 1500,
		})
		if err != nil {
			return err
		}
		if fmt.Sprint(res.Zombies) != fmt.Sprint(picks[i].zombies) {
			return fmt.Errorf("corpus: campaign %d zombies %v differ from their preview %v", i, res.Zombies, picks[i].zombies)
		}
		zs := map[topology.NodeID]bool{}
		for _, z := range res.Zombies {
			zs[z] = true
		}
		id := traceback.NewDDPMIdentifier(scheme, res.Victim)
		first := -1
		for k, rec := range res.Records {
			if src, ok := id.ObserveMF(rec.MF); ok && zs[src] {
				first = k
				break
			}
		}
		if first < 0 {
			return fmt.Errorf("corpus: campaign %d has no attack record", i)
		}
		c.camps[i] = campaign{victim: res.Victim, zombies: res.Zombies}
		c.injections[i] = injection{recs: res.Records, marks: []mark{{pos: first, camp: i}}}
		return nil
	}); err != nil {
		return nil, err
	}
	for _, cp := range c.camps {
		c.victims = append(c.victims, cp.victim)
	}
	for z := range used {
		c.zombieSet = append(c.zombieSet, z)
	}
	sort.Slice(c.zombieSet, func(i, j int) bool { return c.zombieSet[i] < c.zombieSet[j] })
	return c, nil
}

func genScan(seed uint64) (*corpus, error) {
	net, err := core.BuildTopology(core.TopoSpec{Kind: "hypercube", Dims: []int{scanCubeDim}})
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(int64(seed)))
	c := &corpus{net: net}
	seen := map[topology.NodeID]bool{}
	for len(c.victims) < scanVictims {
		if v := topology.NodeID(r.Intn(net.NumNodes())); !seen[v] {
			seen[v] = true
			c.victims = append(c.victims, v)
		}
	}
	var scan, keep, atk *loadgen.SparseResult
	specs := []struct {
		out            **loadgen.SparseResult
		per, srcs, ids int
		seed           uint64
	}{
		{&scan, 4, 4, scanIDs, seed},
		{&keep, keepPerVict, keepSources, scanVictims, seed + 1},
		{&atk, attackPerVic, attackSrcs, scanVictims, seed + 2},
	}
	if err := parallel(len(specs), func(i int) error {
		s := specs[i]
		res, err := loadgen.GenerateSparse(loadgen.SparseScenario{
			Net: net, Victims: c.victims, PerVictim: s.per, Sources: s.srcs, ScanIDs: s.ids, Seed: s.seed,
		})
		*s.out = res
		return err
	}); err != nil {
		return nil, err
	}
	if err := checkTruth(net, atk); err != nil {
		return nil, err
	}
	c.topoID = scan.TopoID
	c.keep = keep.Prelude

	// Two keep-alive slots per victim per pass, 513 batches apart, so
	// the two land on different members of a two-session spray.
	owner := map[int]int{}
	for i := range c.victims {
		q := i*64*batchSize + 17
		c.slots = append(c.slots, q, q+513*batchSize)
		owner[q], owner[q+513*batchSize] = i, i
	}
	sort.Ints(c.slots)
	c.passLen = len(scan.Scan) + len(c.slots)
	c.base = make([]wire.Record, 0, c.passLen)
	rest := scan.Scan
	for _, q := range c.slots {
		n := q - len(c.base)
		c.base = append(append(c.base, rest[:n]...), c.keep[owner[q]])
		rest = rest[n:]
	}
	c.base = append(c.base, rest...)

	// The attack prelude, victim-interleaved round-robin, is one
	// injection; each victim's first record starts its campaign.
	inj := injection{recs: atk.Prelude, per: 32}
	for i, v := range c.victims {
		cp := campaign{victim: v}
		for src := range atk.Truth[v] {
			cp.zombies = append(cp.zombies, src)
		}
		sort.Slice(cp.zombies, func(a, b int) bool { return cp.zombies[a] < cp.zombies[b] })
		c.zombieSet = append(c.zombieSet, cp.zombies...)
		c.camps = append(c.camps, cp)
		inj.marks = append(inj.marks, mark{pos: i, camp: i})
	}
	c.injections = []injection{inj}
	sort.Slice(c.zombieSet, func(i, j int) bool { return c.zombieSet[i] < c.zombieSet[j] })
	return c, nil
}

// checkTruth verifies that the offline identifier reproduces the
// sparse generator's ground truth over one copy of its prelude, so the
// run's tally check against the offline identifier is also a check
// against the truth.
func checkTruth(net topology.Network, res *loadgen.SparseResult) error {
	scheme, err := marking.NewDDPM(net)
	if err != nil {
		return err
	}
	got := map[topology.NodeID]map[topology.NodeID]int64{}
	ids := map[topology.NodeID]*traceback.DDPMIdentifier{}
	for _, rec := range res.Prelude {
		id := ids[rec.Victim]
		if id == nil {
			id = traceback.NewDDPMIdentifier(scheme, rec.Victim)
			ids[rec.Victim] = id
			got[rec.Victim] = map[topology.NodeID]int64{}
		}
		if src, ok := id.ObserveMF(rec.MF); ok {
			got[rec.Victim][src]++
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(res.Truth) {
		return fmt.Errorf("corpus: offline identifier disagrees with the sparse generator's truth")
	}
	return nil
}
