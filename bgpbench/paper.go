package main

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"bgpsim/internal/experiments"
)

// goldenDir holds the committed figure tables paper-figures checks against.
const goldenDir = "testdata/golden"

// sweepNames name the four figure sweeps in paperSweeps order.
var sweepNames = []string{"fig06", "fig07-10", "fig11", "fig12-14"}

// paperTables runs the four figure sweeps in the given order and renders
// the nine golden tables. The renderers follow the unexported ones in
// internal/experiments/golden.go cell for cell; GoldenFigures itself runs
// the sweeps in a fixed order, and the benchmark permutes it.
//
// With a checkpoint directory each sweep gets its own subdirectory: a
// RunAll that does not resume starts its store from an empty manifest, so
// sweeps sharing one directory would each overwrite the others' entries.
func paperTables(s experiments.Scale, order []int, enter func(sweep string) func()) (map[string][][]string, error) {
	tables := map[string][][]string{}
	dir := s.CheckpointDir
	for _, i := range order {
		if dir != "" {
			s.CheckpointDir = filepath.Join(dir, sweepNames[i])
		}
		leave := enter(sweepNames[i])
		var err error
		switch i {
		case 0:
			var rows []experiments.ProfileRow
			if rows, err = experiments.Fig6Profile(s); err == nil {
				tables["fig06"] = renderFig6(rows)
			}
		case 1:
			var rows []experiments.ExecTimeRow
			if rows, err = experiments.Fig910ExecTimes(experiments.SuiteNames(), s); err == nil {
				byName := map[string]experiments.ExecTimeRow{}
				for _, r := range rows {
					byName[r.Benchmark] = r
				}
				tables["fig07"] = renderCompiler(byName["ft"].Points)
				tables["fig08"] = renderCompiler(byName["mg"].Points)
				tables["fig09"] = renderExecTimes(rows[:4])
				tables["fig10"] = renderExecTimes(rows[4:])
			}
		case 2:
			var rows []experiments.L3Row
			if rows, err = experiments.Fig11L3Sweep(experiments.SuiteNames(), s); err == nil {
				tables["fig11"] = renderFig11(rows)
			}
		case 3:
			var rows []experiments.ModeRow
			if rows, err = experiments.Fig121314Modes(experiments.SuiteNames(), s); err == nil {
				tables["fig12"] = renderModes(rows, "traffic_ratio", func(r experiments.ModeRow) float64 { return r.TrafficRatio })
				tables["fig13"] = renderModes(rows, "slowdown_pct", func(r experiments.ModeRow) float64 { return r.SlowdownPct })
				tables["fig14"] = renderModes(rows, "mflops_per_chip_gain", func(r experiments.ModeRow) float64 { return r.MFLOPSPerChipGain })
			}
		}
		leave()
		if err != nil {
			return nil, err
		}
	}
	return tables, nil
}

func cell(v float64) string { return strconv.FormatFloat(v, 'g', 17, 64) }

func renderFig6(rows []experiments.ProfileRow) [][]string {
	seen := map[string]bool{}
	for _, r := range rows {
		for ev := range r.Fractions {
			seen[ev] = true
		}
	}
	var classes []string
	for ev := range seen {
		classes = append(classes, ev)
	}
	sort.Strings(classes)
	out := [][]string{append([]string{"benchmark"}, classes...)}
	for _, r := range rows {
		cells := []string{r.Benchmark}
		for _, ev := range classes {
			cells = append(cells, cell(r.Fractions[ev]))
		}
		out = append(out, cells)
	}
	return out
}

func renderCompiler(pts []experiments.CompilerPoint) [][]string {
	out := [][]string{{"build", "simd_instructions", "simd_share", "exec_cycles", "mflops"}}
	for _, p := range pts {
		out = append(out, []string{p.Opts.String(), cell(p.SIMDInstructions), cell(p.SIMDShare),
			strconv.FormatUint(p.ExecCycles, 10), cell(p.MFLOPS)})
	}
	return out
}

func renderExecTimes(rows []experiments.ExecTimeRow) [][]string {
	header := []string{"benchmark"}
	for _, o := range experiments.CompilerConfigs() {
		header = append(header, o.String())
	}
	out := [][]string{header}
	for _, r := range rows {
		cells := []string{r.Benchmark}
		for _, p := range r.Points {
			cells = append(cells, strconv.FormatUint(p.ExecCycles, 10))
		}
		out = append(out, cells)
	}
	return out
}

func renderFig11(rows []experiments.L3Row) [][]string {
	header := []string{"benchmark", "metric"}
	for _, l3 := range experiments.L3Sizes() {
		header = append(header, fmt.Sprintf("%dMB", l3>>20))
	}
	out := [][]string{header}
	for _, r := range rows {
		traffic := []string{r.Benchmark, "ddr_traffic_bytes"}
		miss := []string{r.Benchmark, "l3_miss_fraction"}
		for _, p := range r.Points {
			traffic = append(traffic, strconv.FormatUint(p.DDRTrafficBytes, 10))
			miss = append(miss, cell(p.MissFraction))
		}
		out = append(out, traffic, miss)
	}
	return out
}

func renderModes(rows []experiments.ModeRow, metric string, val func(experiments.ModeRow) float64) [][]string {
	out := [][]string{{"benchmark", metric}}
	for _, r := range rows {
		out = append(out, []string{r.Benchmark, cell(val(r))})
	}
	return out
}

// loadGolden reads the committed golden tables.
func loadGolden() (map[string][][]string, error) {
	out := map[string][][]string{}
	for _, name := range experiments.GoldenFigureNames() {
		f, err := os.Open(filepath.Join(goldenDir, name+".csv"))
		if err != nil {
			return nil, err
		}
		rows, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out[name] = rows
	}
	return out, nil
}

// checkTables compares a regenerated figure set with the golden tables.
func checkTables(got, want map[string][][]string) error {
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			return fmt.Errorf("%s: table missing", name)
		}
		if len(g) != len(w) {
			return fmt.Errorf("%s: %d rows, want %d", name, len(g), len(w))
		}
		for r := range w {
			if len(g[r]) != len(w[r]) {
				return fmt.Errorf("%s row %d: %d cells, want %d", name, r, len(g[r]), len(w[r]))
			}
			for c := range w[r] {
				if g[r][c] != w[r][c] {
					return fmt.Errorf("%s row %d col %d: %q, want %q", name, r, c, g[r][c], w[r][c])
				}
			}
		}
	}
	return nil
}
