package main

import (
	"bgpsim/internal/rng"
)

// Every draw below comes from a splitmix64 stream derived from the
// command-line seed, so one seed always yields the same request sequence.

func shuffle[T any](r *rng.Source, s []T) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// paperOrder is the order in which pass number pass runs the four figure
// sweeps (indices into paperSweeps).
func paperOrder(seed uint64, pass int) []int {
	order := []int{0, 1, 2, 3}
	shuffle(rng.New(seed).Derive(uint64(pass)), order)
	return order
}

// midscaleBlocks is the number of blocks midscale-single can issue: the
// blocks together draw each MidScale configuration exactly once.
const midscaleBlocks = 3

// midscaleBlock returns block b (0 <= b < midscaleBlocks) of the
// midscale-single schedule, in seeded order. The blocks are the rows of a
// Latin square over the MidScale grid: each holds every workload under
// every mode once and at every L3 size once, and together they hold each
// configuration exactly once.
//
// The seed orders a block but does not choose its members. The grid's
// run costs and node-cycles differ by up to 6x, and the three blocks pair
// modes with L3 sizes differently, so a seeded choice of block moved
// sim_cycles_per_s by 25% between seeds; a fixed block makes every run
// measure the same work.
func midscaleBlock(seed uint64, b int) []Point {
	var pts []Point
	for w, bench := range midscaleBenches {
		for m, mode := range midscaleModes {
			l3 := midscaleL3[(w+m+b)%len(midscaleL3)]
			pts = append(pts, midscalePoint(bench, mode, l3))
		}
	}
	shuffle(rng.New(seed).Derive(uint64(1000+b)), pts)
	return pts
}

// Job kinds of bgpd-mix. A cold job holds one point no earlier job has
// held (a simulate, persist and journal write path); an overlap job holds
// only points its client has already received (store hits under a new job
// id); a resubmit job repeats an earlier job of its client verbatim (the
// idempotent job id answers it).
const (
	kindCold     = "cold"
	kindOverlap  = "overlap"
	kindResubmit = "resubmit"
)

// blockKinds is the kind mix of every block of four consecutive jobs of a
// client: a quarter cold, half overlap, a quarter resubmit. The shares are
// far from one half in every split, so that neither the overall nor the
// warm median sits on the boundary between two kinds. Fixing the mix per
// block, rather than drawing each kind, keeps the cold share of a run
// independent of the seed.
var blockKinds = []string{kindCold, kindOverlap, kindOverlap, kindResubmit}

// maxJobPoints bounds a job's size; sizes 1..maxJobPoints rotate through
// the kinds of a block so that each kind sees every size equally often.
const maxJobPoints = 4

// Job is one bgpd-mix submission.
type Job struct {
	Kind   string  `json:"kind"`
	Points []Point `json:"points"`
}

// mixClient generates one bgpd-mix client's job sequence. Clients draw new
// points from disjoint shards of the catalogue and reuse only their own
// earlier points, so every job's kind is fixed by the seed alone: no job
// depends on another client's progress.
type mixClient struct {
	r       *rng.Source
	shard   []Point
	history []Point
	jobs    []Job
	block   []int // kinds left in the current block, as blockKinds indices
	shift   int   // seeded offset of the size rotation
}

// newMixClient deals the client its shard. The shard is stratified by
// workload: every run of len(groups) consecutive fresh points holds one
// point of each workload, in seeded order, so that the cost mix of the
// fresh simulations, and with it the cold latency, barely depends on the
// seed.
func newMixClient(seed uint64, client, clients int, cat []Point) *mixClient {
	var names []string
	groups := map[string][]Point{}
	for _, p := range cat {
		if groups[p.Bench] == nil {
			names = append(names, p.Bench)
		}
		groups[p.Bench] = append(groups[p.Bench], p)
	}
	var mine [][]Point
	for g, name := range names {
		all := groups[name]
		shuffle(rng.New(seed).Derive(uint64(7+g)), all)
		var part []Point
		for i := client; i < len(all); i += clients {
			part = append(part, all[i])
		}
		mine = append(mine, part)
	}
	c := &mixClient{r: rng.New(seed).Derive(uint64(100 + client))}
	c.shift = c.r.Intn(maxJobPoints)
	order := rng.New(seed).Derive(uint64(200 + client))
	for k := 0; ; k++ {
		perm := make([]int, len(mine))
		for i := range perm {
			perm[i] = i
		}
		shuffle(order, perm)
		dealt := false
		for _, g := range perm {
			if k < len(mine[g]) {
				c.shard = append(c.shard, mine[g][k])
				dealt = true
			}
		}
		if !dealt {
			return c
		}
	}
}

// pick draws n distinct points from the client's history.
func (c *mixClient) pick(n int) []Point {
	idx := make([]int, len(c.history))
	for i := range idx {
		idx[i] = i
	}
	shuffle(c.r, idx)
	if n > len(idx) {
		n = len(idx)
	}
	out := make([]Point, n)
	for i := range out {
		out[i] = c.history[idx[i]]
	}
	return out
}

// Next returns the client's next job. The first job is always cold, as
// there is nothing to reuse yet; a cold job due after the shard is
// exhausted becomes an overlap job, and the catalogue is sized so that no
// run gets there.
func (c *mixClient) Next() Job {
	if len(c.block) == 0 {
		c.block = []int{0, 1, 2, 3}
		shuffle(c.r, c.block)
		if len(c.jobs) == 0 {
			c.block = []int{0, 1, 2, 3}
		}
	}
	k := c.block[0]
	c.block = c.block[1:]
	size := 1 + (k+len(c.jobs)/len(blockKinds)+c.shift)%maxJobPoints
	var j Job
	switch kind := blockKinds[k]; {
	case kind == kindCold && len(c.history) < len(c.shard):
		fresh := c.shard[len(c.history)]
		j = Job{Kind: kindCold, Points: append([]Point{fresh}, c.pick(size-1)...)}
		c.history = append(c.history, fresh)
	case kind != kindResubmit:
		j = Job{Kind: kindOverlap, Points: c.pick(size)}
	default:
		j = c.jobs[c.r.Intn(len(c.jobs))]
		j.Kind = kindResubmit
	}
	c.jobs = append(c.jobs, j)
	return j
}
