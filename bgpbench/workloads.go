package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// paperFigures regenerates the Fig 6-14 tables at QuickScale, one pass per
// request, and checks every pass against testdata/golden.
func (b *bench) paperFigures() (map[string]metric, error) {
	var golden map[string][][]string
	var passCycles float64
	var passColl int
	setupS, err := b.setup(func() error {
		var err error
		if golden, err = loadGolden(); err != nil {
			return err
		}
		table, err := loadTable()
		if err != nil {
			return err
		}
		passCycles, passColl = 0, 0
		for _, s := range paperSweeps() {
			for _, p := range s {
				e, err := table.lookup(p)
				if err != nil {
					return err
				}
				passCycles += e.NodeCycles()
				if e.CollectivesOnly {
					passColl++
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	check := func(r childResp) error { return checkTables(r.Tables, golden) }
	passRuns := 0
	for _, s := range paperSweeps() {
		passRuns += len(s)
	}
	unit := func(i int) (childReq, func(childResp) error, tracedUnit) {
		return childReq{Kind: childPaper, Order: paperOrder(b.seed, i)}, check,
			tracedUnit{nodeCycles: passCycles, runs: passRuns, collOnly: passColl}
	}
	if b.traced {
		// One untraced/traced pair costs about 10 s of a 2-core host.
		return b.tracedPairs("paper", max(1, b.seconds/10), unit)
	}
	var l loop
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < time.Duration(b.seconds)*time.Second; pass++ {
		if err := b.ctx.Err(); err != nil {
			return nil, err
		}
		req, check, u := unit(pass)
		if err := l.coldWarm(b, "paper", req, check, u.nodeCycles); err != nil {
			return nil, err
		}
	}
	return l.metrics(b, setupS), nil
}

// midscaleRunBlocks is how many schedule blocks one midscale-single run
// issues, whatever --seconds says: a block takes 20-30 s of a 2-core host,
// and stopping on a clock instead would make the number of blocks, and
// with it the run's mix, depend on host speed.
const midscaleRunBlocks = 1

// midscaleSingle issues single MidScale runs one at a time.
func (b *bench) midscaleSingle() (map[string]metric, error) {
	var table Table
	var sched []Point
	setupS, err := b.setup(func() error {
		var err error
		if table, err = loadTable(); err != nil {
			return err
		}
		sched = sched[:0]
		for blk := 0; blk < midscaleRunBlocks; blk++ {
			sched = append(sched, midscaleBlock(b.seed, blk)...)
		}
		for _, p := range sched {
			if _, err := table.lookup(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	unit := func(i int) (childReq, func(childResp) error, tracedUnit) {
		p := sched[i]
		e, _ := table.lookup(p)
		check := func(r childResp) error { return e.check(r.ExecCycles, r.Nodes, r.DumpsSHA256) }
		u := tracedUnit{nodeCycles: e.NodeCycles(), runs: 1}
		if e.CollectivesOnly {
			u.collOnly = 1
		}
		return childReq{Kind: childRun, Point: &p}, check, u
	}
	if b.traced {
		// One untraced/traced pair costs about 3 s of a 2-core host.
		return b.tracedPairs("run", min(len(sched), max(2, b.seconds/3)), unit)
	}
	var l loop
	for i := range sched {
		if err := b.ctx.Err(); err != nil {
			return nil, err
		}
		req, check, u := unit(i)
		if err := l.coldWarm(b, "run", req, check, u.nodeCycles); err != nil {
			return nil, err
		}
	}
	return l.metrics(b, setupS), nil
}

// bgpdMix drives an in-process bgpd with the synthetic job mix.
func (b *bench) bgpdMix() (map[string]metric, error) {
	mix := func(dir string) *mixReq {
		return &mixReq{Seed: b.seed, Clients: b.nproc, Dir: filepath.Join(b.work, dir), SetupRepeats: 1}
	}
	if b.traced {
		return b.tracedMix(mix)
	}
	req := mix("mix")
	req.Seconds, req.SetupRepeats = float64(b.seconds), setupRepeats
	out, resp, err := b.mixPhase(req, false, false)
	if err != nil {
		return nil, err
	}
	var setupS, all, cold, warm []float64
	var nodeCycles float64
	for _, ns := range resp.SetupNS {
		setupS = append(setupS, time.Duration(ns).Seconds())
	}
	for _, j := range resp.Jobs {
		if !j.OK {
			continue
		}
		lat := ms(time.Duration(j.Latency))
		all = append(all, lat)
		if j.Kind == kindCold {
			cold = append(cold, lat)
			nodeCycles += j.NodeCycles
		} else {
			warm = append(warm, lat)
		}
	}
	return endToEnd(median(setupS), all, cold, warm, float64(len(all)), time.Duration(resp.Elapsed),
		nodeCycles, float64(out.maxRSSK)/1024, b), nil
}

// mixPhase runs one bgpd-mix phase in a child process and books its jobs;
// with keep, the child's spans join the trace.
func (b *bench) mixPhase(req *mixReq, traced, keep bool) (childOutcome, *mixResp, error) {
	var t *tracer
	if keep {
		t = b.t
	}
	id := t.open("child.bgpd", 0)
	out, err := spawn(b.ctx, childReq{Kind: childMix, Traced: traced, Mix: req})
	t.close(id)
	if err == nil && out.resp.Err != "" {
		err = fmt.Errorf("%s", out.resp.Err)
	}
	if err == nil && out.resp.Mix == nil {
		err = fmt.Errorf("bgpd child returned no result")
	}
	if err != nil {
		return out, nil, err
	}
	t.graft(id, out.resp.Spans)
	for _, j := range out.resp.Mix.Jobs {
		b.attempted++
		if !j.OK {
			b.fail(fmt.Errorf("bgpd %s job: %s", j.Kind, j.Err))
		}
	}
	return out, out.resp.Mix, nil
}
