// Command bgpbench is the repository benchmark. It runs one workload for a
// given time and prints, as the last line of its standard output, one JSON
// object with the keys correct, attempted, failed and metrics. See
// README.md in this directory for the workloads and metrics.
//
//	bash bgpbench/run.sh --workload paper-figures --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// Observer attached; with --trace 1 it reports the per-layer metrics of a
// separate traced run and writes that run's spans under .bench_build/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// Workload names.
const (
	wlPaper    = "paper-figures"
	wlMidscale = "midscale-single"
	wlMix      = "bgpd-mix"
)

// childTimeout bounds one child process, well inside the 180 s a run may
// take.
const childTimeout = 150 * time.Second

// setupRepeats is how many times a run repeats its set-up; setup_s is
// the median.
const setupRepeats = 11

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: "+wlPaper+", "+wlMidscale+" or "+wlMix)
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 25, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	child := flag.Bool("child", false, "serve one request from stdin (internal)")
	regen := flag.Bool("regen-expected", false, "rewrite "+expectedPath+" by simulating every drawable point")
	flag.Parse()

	switch {
	case *child:
		os.Exit(runChild())
	case *regen:
		if err := regenExpected(); err != nil {
			fmt.Fprintln(os.Stderr, "bgpbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bgpbench: need --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	// An interrupt or termination stops the run and kills its children.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	b := &bench{ctx: ctx, seed: *seed, seconds: *seconds, traced: *trace == 1, nproc: runtime.NumCPU()}
	b.work = filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid()))
	res, err := b.run(*workload)
	if rerr := os.RemoveAll(b.work); err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bgpbench:", err)
		os.Exit(1)
	}
	// A map of strings and numbers always marshals.
	stamp, _ := json.Marshal(map[string]any{"host": map[string]any{
		"nproc": b.nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": os.Getenv("BGPBENCH_COMMIT"), "workload": *workload, "seed": *seed,
		"seconds": *seconds, "trace": *trace,
	}})
	fmt.Println(string(stamp))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bgpbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// bench is one benchmark run.
type bench struct {
	ctx     context.Context
	seed    uint64
	seconds int
	traced  bool
	nproc   int
	work    string // scratch directory inside the checkout

	attempted, failed int

	t *tracer // traced runs: the parent's spans
}

// fail records a failed request.
func (b *bench) fail(err error) {
	b.failed++
	if b.failed <= 5 {
		fmt.Fprintln(os.Stderr, "bgpbench: request failed:", err)
	}
}

func (b *bench) run(workload string) (*result, error) {
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return nil, err
	}
	if b.traced {
		b.t = &tracer{}
	}
	var m map[string]metric
	var err error
	switch workload {
	case wlPaper:
		m, err = b.paperFigures()
	case wlMidscale:
		m, err = b.midscaleSingle()
	case wlMix:
		m, err = b.bgpdMix()
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s, %s, %s)", workload, wlPaper, wlMidscale, wlMix)
	}
	if err != nil {
		return nil, err
	}
	if b.traced {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", workload, b.seed))
		if err := writeTrace(path, b.t.spans); err != nil {
			return nil, err
		}
	}
	if b.attempted == 0 {
		return nil, fmt.Errorf("no request attempted")
	}
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

// setup times set-up setupRepeats times and returns the median seconds.
// Set-up is loading the workload's inputs and starting a child process of
// the program that exits before any simulation.
func (b *bench) setup(load func() error) (float64, error) {
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if err := load(); err != nil {
			return 0, err
		}
		if _, err := spawn(b.ctx, childReq{Kind: childNoop}); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

// request runs one child request; a traced one records a request span
// with the child's spans grafted under it. A request that fails, or whose
// output check fails, counts as failed.
func (b *bench) request(name string, req childReq, check func(childResp) error) (childOutcome, bool) {
	b.attempted++
	var t *tracer
	if req.Traced {
		t = b.t
	}
	id := t.open("request."+name, 0)
	out, err := spawn(b.ctx, req)
	t.close(id)
	if err == nil && out.resp.Err != "" {
		err = fmt.Errorf("%s", out.resp.Err)
	}
	if err == nil {
		err = check(out.resp)
	}
	if err != nil {
		b.fail(fmt.Errorf("%s: %w", name, err))
		return out, false
	}
	t.graft(id, out.resp.Spans)
	return out, true
}

// loop is the closed loop of paper-figures and midscale-single: each
// request is a cold regeneration in a fresh process that persists its runs
// to a checkpoint directory, followed by a warm probe that renders the same
// output from that directory in another fresh process. Latency, rate and
// simulation-speed figures cover the cold requests; warm_p50_ms covers the
// probes.
//
// A request's peak resident memory is its child's; peak_rss_mb is their
// mean. A process's peak moves by 20-30% with where its garbage
// collections fall, so one extreme request would decide a maximum or, over
// a few passes, a median.
type loop struct {
	cold, warm []float64 // ms
	coldWall   time.Duration
	nodeCycles float64
	rssMiB     []float64
}

func (l *loop) coldWarm(b *bench, name string, req childReq, check func(childResp) error, nodeCycles float64) error {
	req.Dir = b.ckptDir()
	if out, ok := b.request(name, req, check); ok {
		l.cold = append(l.cold, ms(out.wall))
		l.coldWall += out.wall
		l.nodeCycles += nodeCycles
		l.rssMiB = append(l.rssMiB, float64(out.maxRSSK)/1024)
		req.Warm = true
		if out, ok := b.request(name+".warm", req, check); ok {
			l.warm = append(l.warm, ms(out.wall))
		}
	}
	return os.RemoveAll(req.Dir)
}

// ckptDir is the checkpoint directory of the request in flight.
func (b *bench) ckptDir() string { return filepath.Join(b.work, "ckpt") }

func (l *loop) metrics(b *bench, setupS float64) map[string]metric {
	return endToEnd(setupS, l.cold, l.cold, l.warm, float64(len(l.cold)), l.coldWall, l.nodeCycles, ratio(sum(l.rssMiB), float64(len(l.rssMiB))), b)
}

// endToEnd assembles the end-to-end metrics every workload reports.
func endToEnd(setupS float64, all, cold, warm []float64, completed float64, wall time.Duration,
	nodeCycles, rssMiB float64, b *bench) map[string]metric {
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"latency_p50_ms":   {median(all), "ms"},
		"latency_p90_ms":   {quantile(all, 0.9), "ms"},
		"cold_p50_ms":      {median(cold), "ms"},
		"warm_p50_ms":      {median(warm), "ms"},
		"requests_per_s":   {ratio(completed, wall.Seconds()), "1/s"},
		"sim_cycles_per_s": {ratio(nodeCycles, wall.Seconds()), "cycles/s"},
		"peak_rss_mb":      {rssMiB, "MiB"},
		"ok_frac":          {ratio(float64(b.attempted-b.failed), float64(b.attempted)), "ratio"},
	}
}
