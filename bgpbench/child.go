package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"

	bgp "bgpsim"
	"bgpsim/internal/experiments"
	"bgpsim/internal/sweep"
)

// Requests of paper-figures and midscale-single each run in a fresh child
// process of the benchmark binary, so that every one starts with the
// process-wide caches (compile cache, epoch memo) and the Go heap as empty
// as a fresh bgpreport or bgprun process has them. The parent writes a
// childReq to the child's stdin and reads a childResp from its stdout.

// Child request kinds. A noop child only starts and exits: paper-figures
// and midscale-single count that start-up as set-up time.
const (
	childNoop  = "noop"
	childPaper = "paper"
	childRun   = "run"
	childMix   = "bgpd"
)

type childReq struct {
	Kind   string `json:"kind"`
	Traced bool   `json:"traced"`
	// Dir is the checkpoint directory a cold request persists its runs to
	// and a warm one (Warm) renders from without simulating.
	Dir  string `json:"dir,omitempty"`
	Warm bool   `json:"warm,omitempty"`
	// Order is the paper pass's sweep order; Point the single run.
	Order []int  `json:"order,omitempty"`
	Point *Point `json:"point,omitempty"`
	// Mix configures a bgpd-mix phase.
	Mix *mixReq `json:"mix,omitempty"`
}

type childResp struct {
	Err string `json:"err,omitempty"`
	// Tables are a paper pass's nine figure tables.
	Tables map[string][][]string `json:"tables,omitempty"`
	// ExecCycles, Nodes and DumpsSHA256 describe a single run's output.
	ExecCycles  uint64 `json:"exec_cycles,omitempty"`
	Nodes       int    `json:"nodes,omitempty"`
	DumpsSHA256 string `json:"dumps_sha256,omitempty"`
	// Mix is a bgpd-mix phase's outcome.
	Mix *mixResp `json:"mix,omitempty"`

	// Traced requests only: registry counters, spans, the sweep pool's
	// busy fraction and Go runtime figures.
	Counters map[string]uint64 `json:"counters,omitempty"`
	Spans    []Span            `json:"spans,omitempty"`
	BusyFrac float64           `json:"busy_frac,omitempty"`
	HeapPeak uint64            `json:"heap_peak,omitempty"`
	GCCPU    float64           `json:"gc_cpu,omitempty"`
	TotalCPU float64           `json:"total_cpu,omitempty"`
}

// runChild serves one request read from stdin.
func runChild() int {
	var req childReq
	if err := json.NewDecoder(os.Stdin).Decode(&req); err != nil {
		fmt.Fprintln(os.Stderr, "bgpbench child:", err)
		return 2
	}
	resp := serve(req)
	if err := json.NewEncoder(os.Stdout).Encode(resp); err != nil {
		fmt.Fprintln(os.Stderr, "bgpbench child:", err)
		return 2
	}
	return 0
}

func serve(req childReq) (resp childResp) {
	var t *tracer
	var ob *spanObserver
	var rs *runtimeSampler
	if req.Traced {
		t = &tracer{}
		ob = newSpanObserver(t)
		rs = startRuntimeSampler()
	}
	var err error
	switch req.Kind {
	case childNoop:
	case childPaper:
		err = paperChild(req, t, ob, &resp)
	case childRun:
		err = runChildPoint(req, t, ob, &resp)
	case childMix:
		resp.Mix, err = mixChild(req.Mix, t)
	default:
		err = fmt.Errorf("unknown child request %q", req.Kind)
	}
	if err != nil {
		resp.Err = err.Error()
	}
	if req.Traced {
		resp.HeapPeak, resp.GCCPU, resp.TotalCPU = rs.finish()
		resp.Spans = t.spans
		if req.Kind != childMix {
			resp.Counters = ob.Registry().Snapshot().Counters
		}
	}
	return resp
}

// observer returns ob as a bgp.Observer, nil when untraced: a typed nil
// pointer in an interface would count as an attached observer.
func observer(ob *spanObserver) bgp.Observer {
	if ob == nil {
		return nil
	}
	return ob
}

// busyFrac is Σ run wall time ÷ (workers × pass wall time).
func busyFrac(p *sweep.Progress, workers int, wall time.Duration) float64 {
	return float64(p.Snapshot().Wall) / (float64(workers) * float64(wall))
}

// paperChild regenerates the Fig 6-14 tables at QuickScale.
func paperChild(req childReq, t *tracer, ob *spanObserver, resp *childResp) error {
	s := experiments.QuickScale()
	s.Jobs = runtime.NumCPU()
	s.Progress = &sweep.Progress{}
	s.Observer = observer(ob)
	s.CheckpointDir = req.Dir
	s.ResumeOnly = req.Warm
	enter := func(name string) func() {
		id := t.open("sweep."+name, 0)
		if ob != nil {
			ob.parent.Store(int64(id))
		}
		return func() { t.close(id) }
	}
	start := time.Now()
	tables, err := paperTables(s, req.Order, enter)
	if err != nil {
		return err
	}
	resp.Tables = tables
	resp.BusyFrac = busyFrac(s.Progress, s.Jobs, time.Since(start))
	return nil
}

// runChildPoint executes one run the way bgprun does (through RunAll).
func runChildPoint(req childReq, t *tracer, ob *spanObserver, resp *childResp) error {
	hpl, err := readHPL()
	if err != nil {
		return err
	}
	cfg, err := req.Point.RunConfig(hpl)
	if err != nil {
		return err
	}
	sc := bgp.SweepConfig{
		Workers:       runtime.NumCPU(),
		Progress:      &sweep.Progress{},
		Observer:      observer(ob),
		CheckpointDir: req.Dir,
		ResumeOnly:    req.Warm,
	}
	id := t.open("bgp.RunAll", 0)
	if ob != nil {
		ob.parent.Store(int64(id))
	}
	start := time.Now()
	results, err := bgp.RunAll(context.Background(), []bgp.RunConfig{cfg}, sc)
	t.close(id)
	if err != nil {
		return err
	}
	resp.BusyFrac = busyFrac(sc.Progress, sc.Workers, time.Since(start))
	res := results[0]
	resp.ExecCycles, resp.Nodes = res.Metrics.ExecCycles, res.Metrics.Nodes
	resp.DumpsSHA256, _, err = digest(res)
	return err
}

// childOutcome is one finished child process.
type childOutcome struct {
	resp    childResp
	start   time.Time
	wall    time.Duration
	maxRSSK int64
}

// spawn runs one child request to completion, killing the child if ctx
// ends or the child outlives childTimeout.
func spawn(ctx context.Context, req childReq) (childOutcome, error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	var out childOutcome
	exe, err := os.Executable()
	if err != nil {
		return out, err
	}
	in, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return out, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return out, err
	}
	cmd.Stderr = os.Stderr
	out.start = time.Now()
	if err := cmd.Start(); err != nil {
		return out, err
	}
	_, werr := stdin.Write(in)
	stdin.Close()
	data, rerr := io.ReadAll(stdout)
	werr2 := cmd.Wait()
	out.wall = time.Since(out.start)
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		out.maxRSSK = ru.Maxrss
	}
	for _, e := range []error{werr, rerr, werr2} {
		if e != nil {
			return out, fmt.Errorf("child %s: %w", req.Kind, e)
		}
	}
	if err := json.Unmarshal(data, &out.resp); err != nil {
		return out, fmt.Errorf("child %s output: %w", req.Kind, err)
	}
	return out, nil
}
