package main

import (
	"fmt"
	"os"
	"regexp"

	bgp "bgpsim"
	"bgpsim/internal/experiments"
	"bgpsim/internal/server"
)

// hplPath is the HPL proxy spec every HPL point is built from, relative to
// the repository root the benchmark runs in.
const hplPath = "specs/hpl.yaml"

// Point is one simulation configuration a workload can draw. It is the
// benchmark's own compact spelling of a bgpd RunSpec: Bench "hpl" selects
// the HPL proxy spec re-seeded with Seed, anything else a NAS benchmark.
type Point struct {
	Bench   string `json:"bench"`
	Seed    uint64 `json:"seed,omitempty"`
	Class   string `json:"class"`
	Ranks   int    `json:"ranks"`
	Mode    string `json:"mode"`
	Opts    string `json:"opts"`
	L3Bytes int    `json:"l3_bytes,omitempty"`
}

// Key names the point in the expected-output table.
func (p Point) Key() string {
	name := p.Bench
	if p.Bench == "hpl" {
		name = fmt.Sprintf("hpl@%d", p.Seed)
	}
	return fmt.Sprintf("%s.%s x%d %s %s l3=%d", name, p.Class, p.Ranks, p.Mode, p.Opts, p.L3Bytes)
}

var seedLine = regexp.MustCompile(`(?m)^seed: .*$`)

// RunSpec renders the point as a bgpd job run; hpl is the text of
// specs/hpl.yaml, whose seed line the point's Seed replaces.
func (p Point) RunSpec(hpl string) server.RunSpec {
	rs := server.RunSpec{Class: p.Class, Ranks: p.Ranks, Mode: p.Mode, Opts: p.Opts, L3Bytes: p.L3Bytes}
	if p.Bench == "hpl" {
		rs.Workload = seedLine.ReplaceAllString(hpl, fmt.Sprintf("seed: %d", p.Seed))
	} else {
		rs.Benchmark = p.Bench
	}
	return rs
}

// RunConfig lowers the point the way bgpd lowers a submitted run.
func (p Point) RunConfig(hpl string) (bgp.RunConfig, error) {
	cfg, err := p.RunSpec(hpl).Compile()
	if err != nil {
		return cfg, fmt.Errorf("%s: %w", p.Key(), err)
	}
	return cfg, nil
}

func readHPL() (string, error) {
	b, err := os.ReadFile(hplPath)
	return string(b), err
}

// hplSeed is the seed specs/hpl.yaml ships with.
const hplSeed = 20080905

const (
	quickClass, quickRanks = "W", 16 // experiments.QuickScale
	midClass, midRanks     = "B", 32 // experiments.MidScale
)

var bestOpts = experiments.BestBuild().String()

// paperSweeps lists the runs of each sweep experiments.GoldenFigures makes
// at QuickScale, in its order: Fig 6, Figs 7-10, Fig 11, Figs 12-14. They
// mirror the sweep constructors in internal/experiments, which is what the
// golden CSVs check; the list exists to count node-cycles per pass.
func paperSweeps() [4][]Point {
	suite := experiments.SuiteNames()
	q := func(bench, mode, opts string, l3 int) Point {
		return Point{Bench: bench, Class: quickClass, Ranks: quickRanks, Mode: mode, Opts: opts, L3Bytes: l3}
	}
	var s [4][]Point
	for _, b := range suite {
		s[0] = append(s[0], q(b, "vnm", bestOpts, 0))
		for _, o := range experiments.CompilerConfigs() {
			s[1] = append(s[1], q(b, "vnm", o.String(), 0))
		}
		for _, l3 := range fig11L3() {
			s[2] = append(s[2], q(b, "smp1", bestOpts, l3))
		}
		s[3] = append(s[3], q(b, "vnm", bestOpts, 0), q(b, "smp1", bestOpts, experiments.SMPFairL3Bytes))
	}
	return s
}

// fig11L3 is the Fig 11 L3 sweep as RunConfig.L3Bytes values (0 MB is a
// disabled L3, -1).
func fig11L3() []int {
	var out []int
	for _, l3 := range experiments.L3Sizes() {
		if l3 == 0 {
			l3 = -1
		}
		out = append(out, l3)
	}
	return out
}

// midscaleBenches are the workloads midscale-single draws from:
// point-to-point kernels, collectives-only kernels, and the HPL spec.
var midscaleBenches = []string{"cg", "mg", "lu", "sp", "bt", "ft", "is", "hpl"}

// midscaleModes and midscaleL3 are the other two axes of the MidScale grid.
var (
	midscaleModes = []string{"vnm", "smp1", "dual"}
	midscaleL3    = []int{8 << 20, 2 << 20, -1}
)

func midscalePoint(bench, mode string, l3 int) Point {
	p := Point{Bench: bench, Class: midClass, Ranks: midRanks, Mode: mode, Opts: bestOpts, L3Bytes: l3}
	if bench == "hpl" {
		p.Seed = hplSeed
	}
	return p
}

// hplSeeds are the seeds bgpd-mix sends the HPL spec with.
var hplSeeds = []uint64{hplSeed, 1, 2}

// bgpdCatalogue is every point a bgpd-mix job can hold: each NAS kernel
// and the HPL spec (sent by value under each of hplSeeds) under every mode,
// compiler build and Fig 11 L3 size.
func bgpdCatalogue() []Point {
	var cat []Point
	l3s := fig11L3()
	for _, b := range experiments.SuiteNames() {
		for _, m := range midscaleModes {
			for _, o := range experiments.CompilerConfigs() {
				for _, l3 := range l3s {
					cat = append(cat, Point{Bench: b, Class: quickClass, Ranks: quickRanks, Mode: m, Opts: o.String(), L3Bytes: l3})
				}
			}
		}
	}
	for _, seed := range hplSeeds {
		for _, m := range midscaleModes {
			for _, o := range experiments.CompilerConfigs() {
				for _, l3 := range l3s {
					cat = append(cat, Point{Bench: "hpl", Seed: seed, Class: quickClass, Ranks: quickRanks, Mode: m, Opts: o.String(), L3Bytes: l3})
				}
			}
		}
	}
	return cat
}
