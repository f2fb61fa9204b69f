package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// tracedUnit is what the parent knows about a traced request in advance.
type tracedUnit struct {
	nodeCycles float64
	runs       int
	collOnly   int
}

// layers accumulates the traced requests of a --trace 1 run.
type layers struct {
	counters            map[string]uint64
	busy                []float64
	heapPeak            uint64
	gcCPU, totalCPU     float64
	traced, untraced    time.Duration
	nodeCycles          float64
	runs, collOnly      int
	requests            int
	submit, wait, fetch []float64 // bgpd-mix only, ms
	mismatches          int
}

func (ly *layers) add(resp childResp, u tracedUnit, wall time.Duration) {
	if ly.counters == nil {
		ly.counters = map[string]uint64{}
	}
	for k, v := range resp.Counters {
		ly.counters[k] += v
	}
	if resp.BusyFrac > 0 {
		ly.busy = append(ly.busy, resp.BusyFrac)
	}
	ly.heapPeak = max(ly.heapPeak, resp.HeapPeak)
	ly.gcCPU += resp.GCCPU
	ly.totalCPU += resp.TotalCPU
	ly.traced += wall
	ly.nodeCycles += u.nodeCycles
	ly.runs += u.runs
	ly.collOnly += u.collOnly
	ly.requests++
}

// simulated lists the counters that are functions of the simulated
// requests alone, so two traced runs of one request must agree on them
// exactly.
func simulated(c map[string]uint64) map[string]uint64 {
	out := map[string]uint64{}
	for k, v := range c {
		for _, p := range []string{"engine.route.", "cache.", "ddr.", "sim.epochmemo.", "sim.ff.", "sim.exec_cycles", "sim.runs"} {
			if strings.HasPrefix(k, p) {
				out[k] = v
			}
		}
	}
	return out
}

// selfCheck compares the simulated counts of two traced runs of the same
// request. A difference is nondeterminism in the program, not host noise,
// and fails the run.
func (b *bench) selfCheck(ly *layers, a, c map[string]uint64) {
	sa, sc := simulated(a), simulated(c)
	var diffs []string
	for k := range sa {
		if sa[k] != sc[k] {
			diffs = append(diffs, fmt.Sprintf("%s %d vs %d", k, sa[k], sc[k]))
		}
	}
	for k := range sc {
		if _, ok := sa[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s absent vs %d", k, sc[k]))
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		ly.mismatches += len(diffs)
		b.fail(fmt.Errorf("nondeterminism in the program: simulated counts differ between two traced runs of one request: %s",
			strings.Join(diffs, "; ")))
	}
}

// tracedPairs runs units 0..n-1 twice each, once untraced and once traced,
// alternating which goes first, then repeats unit 0 traced for the
// steadiness self-check.
func (b *bench) tracedPairs(name string, n int, unit func(int) (childReq, func(childResp) error, tracedUnit)) (map[string]metric, error) {
	var ly layers
	var first map[string]uint64
	for i := 0; i <= n; i++ {
		if err := b.ctx.Err(); err != nil {
			return nil, err
		}
		req, check, u := unit(i % n)
		req.Dir = b.ckptDir()
		order := []bool{false, true}
		if i%2 == 1 {
			order = []bool{true, false}
		}
		if i == n {
			order = []bool{true}
		}
		for _, traced := range order {
			req.Traced = traced
			out, ok := b.request(name, req, check)
			if err := os.RemoveAll(req.Dir); err != nil {
				return nil, err
			}
			switch {
			case !ok:
			case i == n:
				if first != nil {
					b.selfCheck(&ly, first, out.resp.Counters)
				}
			case traced:
				if i == 0 {
					first = out.resp.Counters
				}
				ly.add(out.resp, u, out.wall)
			default:
				ly.untraced += out.wall
			}
		}
	}
	return b.perLayer(&ly), nil
}

// tracedMix runs three bgpd-mix phases with the same per-client job
// count: untraced, traced, and traced again for the self-check.
func (b *bench) tracedMix(mix func(string) *mixReq) (map[string]metric, error) {
	// A 2-core host completes about 35 jobs per client-second, so each
	// phase takes under a third of --seconds.
	jobs := 10 * b.seconds
	var ly layers
	var first map[string]uint64
	for phase := 0; phase < 3; phase++ {
		req := mix(fmt.Sprintf("mix%d", phase))
		req.JobsPerClient = jobs
		out, resp, err := b.mixPhase(req, phase > 0, phase == 1)
		if err != nil {
			return nil, err
		}
		wall := time.Duration(resp.Elapsed)
		switch phase {
		case 0:
			ly.untraced = 2 * wall // weighs against two traced phases
		case 1:
			first = resp.Counters
			out.resp.Counters = resp.Counters
			u := tracedUnit{}
			for _, j := range resp.Jobs {
				if !j.OK {
					continue
				}
				ly.submit = append(ly.submit, ms(time.Duration(j.Submit)))
				ly.fetch = append(ly.fetch, ms(time.Duration(j.Fetch)))
				if j.Fresh {
					ly.wait = append(ly.wait, ms(time.Duration(j.Wait)))
					u.nodeCycles += j.NodeCycles
					u.runs++
					if j.CollOnly {
						u.collOnly++
					}
				}
			}
			ly.add(out.resp, u, wall)
			ly.requests = len(resp.Jobs)
			ly.busy = append(ly.busy, ratio(float64(phaseNS(resp.Counters)), float64(b.nproc)*float64(wall)))
		case 2:
			ly.traced += wall
			b.selfCheck(&ly, first, resp.Counters)
		}
	}
	return b.perLayer(&ly), nil
}

func phaseNS(c map[string]uint64) uint64 {
	return c["phase.ns.compile"] + c["phase.ns.run"] + c["phase.ns.postproc"]
}

// perLayer derives the per-layer metrics. Counts are totals over the
// traced requests, which the seed and --seconds fix; times are per run or
// per request.
func (b *bench) perLayer(ly *layers) map[string]metric {
	c := ly.counters
	f := func(k string) float64 { return float64(c[k]) }
	runs := f("sim.runs")
	self := selfTimes(b.t.spans)
	// selfPer is the self time of the spans named with one of prefixes,
	// per traced request.
	selfPer := func(prefixes ...string) float64 {
		var d time.Duration
		for name, v := range self {
			for _, p := range prefixes {
				if strings.HasPrefix(name, p) {
					d += v
				}
			}
		}
		return ratio(ms(d), float64(ly.requests))
	}
	l1 := f("cache.l1.hits") + f("cache.l1.misses")
	l2 := f("cache.l2pf.hits") + f("cache.l2pf.misses")
	l3 := f("cache.l3.hits") + f("cache.l3.misses")
	hits := f("server.cache.hit_inflight") + f("server.cache.hit_store")
	return map[string]metric{
		"sweep.busy_frac":                {median(ly.busy), "ratio"},
		"sweep.self_ms_per_request":      {selfPer("sweep.", "bgp.RunAll"), "ms"},
		"bench.self_ms_per_request":      {selfPer("request.", "job."), "ms"},
		"compile.ms_per_run":             {ratio(f("phase.ns.compile")/1e6, runs), "ms"},
		"progcache.hit_ratio":            {ratio(f("sim.progcache.hit"), f("sim.progcache.hit")+f("sim.progcache.miss")), "ratio"},
		"run.ms_per_run":                 {ratio(f("phase.ns.run")/1e6, runs), "ms"},
		"run.ns_per_node_cycle":          {ratio(f("phase.ns.run"), ly.nodeCycles), "ns"},
		"postproc.ms_per_run":            {ratio(f("phase.ns.postproc")/1e6, runs), "ms"},
		"core.route.closed_form":         {f("engine.route.closed_form"), "count"},
		"core.route.coalesced":           {f("engine.route.coalesced"), "count"},
		"core.route.tracked":             {f("engine.route.tracked"), "count"},
		"core.route.interp":              {f("engine.route.interp"), "count"},
		"mpi.ff.dispatches":              {f("sim.ff.dispatches"), "count"},
		"mpi.epochmemo.hits":             {f("sim.epochmemo.hits"), "count"},
		"mpi.epochmemo.misses":           {f("sim.epochmemo.misses"), "count"},
		"mpi.epochmemo.stores":           {f("sim.epochmemo.stores"), "count"},
		"mpi.collectives_only_share":     {ratio(float64(ly.collOnly), float64(ly.runs)), "ratio"},
		"cache.l1.accesses":              {l1, "count"},
		"cache.l1.miss_ratio":            {ratio(f("cache.l1.misses"), l1), "ratio"},
		"cache.l2pf.issued":              {f("cache.l2pf.issued"), "count"},
		"cache.l2pf.hit_ratio":           {ratio(f("cache.l2pf.hits"), l2), "ratio"},
		"cache.l3.accesses":              {l3, "count"},
		"cache.l3.miss_ratio":            {ratio(f("cache.l3.misses"), l3), "ratio"},
		"memory.ddr.lines":               {f("ddr.read_lines") + f("ddr.write_lines"), "count"},
		"go.gc_cpu_frac":                 {ratio(ly.gcCPU, ly.totalCPU), "ratio"},
		"go.heap_peak_mb":                {float64(ly.heapPeak) / (1 << 20), "MiB"},
		"server.submit_ms":               {median(ly.submit), "ms"},
		"server.wait_ms":                 {median(ly.wait), "ms"},
		"server.fetch_ms":                {median(ly.fetch), "ms"},
		"server.cache.hit_ratio":         {ratio(hits, hits+f("server.cache.miss")), "ratio"},
		"server.cache.hit_inflight":      {f("server.cache.hit_inflight"), "count"},
		"server.cache.hit_store":         {f("server.cache.hit_store"), "count"},
		"server.cache.miss":              {f("server.cache.miss"), "count"},
		"server.journal.records_per_job": {ratio(f("server.journal.records"), float64(ly.requests)), "count"},
		"obs.tracing_overhead_frac":      {ratio(float64(ly.traced), float64(ly.untraced)) - 1, "ratio"},
		"selfcheck.mismatches":           {float64(ly.mismatches), "count"},
	}
}
