package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"

	bgp "bgpsim"
	"bgpsim/internal/nas"
	"bgpsim/internal/workload"
)

// expectedPath is the expected-output table, relative to the repository
// root. Regenerate it with
//
//	bash bgpbench/run.sh -regen-expected
//
// after a change that is meant to move simulated results.
const expectedPath = "bgpbench/expected.json"

// Entry is the expected output of one Point.
type Entry struct {
	Key string `json:"key"`
	// ExecCycles and Nodes are Metrics.ExecCycles and the nodes booked;
	// their product is the run's node-cycles.
	ExecCycles uint64 `json:"exec_cycles"`
	Nodes      int    `json:"nodes"`
	// DumpsSHA256 hashes every node's encoded dump in node order;
	// Node0SHA256 hashes node 0's alone (the dump bgpd-mix fetches).
	DumpsSHA256 string `json:"dumps_sha256"`
	Node0SHA256 string `json:"node0_sha256"`
	// CollectivesOnly marks programs without point-to-point messages.
	CollectivesOnly bool `json:"collectives_only"`
}

// NodeCycles is the run's simulated node-cycles.
func (e Entry) NodeCycles() float64 { return float64(e.ExecCycles) * float64(e.Nodes) }

// Table maps Point keys to their expected outputs.
type Table map[string]Entry

func loadTable() (Table, error) {
	data, err := os.ReadFile(expectedPath)
	if err != nil {
		return nil, err
	}
	var entries []Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath, err)
	}
	t := make(Table, len(entries))
	for _, e := range entries {
		t[e.Key] = e
	}
	return t, nil
}

// lookup returns p's entry, failing for a point the table lacks.
func (t Table) lookup(p Point) (Entry, error) {
	e, ok := t[p.Key()]
	if !ok {
		return e, fmt.Errorf("no expected output for %s; regenerate %s", p.Key(), expectedPath)
	}
	return e, nil
}

// digest hashes a result's encoded dumps.
func digest(res *bgp.Result) (all, node0 string, err error) {
	h := sha256.New()
	for i, d := range res.Dumps {
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			return "", "", err
		}
		h.Write(buf.Bytes())
		if i == 0 {
			sum := sha256.Sum256(buf.Bytes())
			node0 = hex.EncodeToString(sum[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), node0, nil
}

// check compares a run's output with its entry.
func (e Entry) check(execCycles uint64, nodes int, dumpsSHA string) error {
	if execCycles != e.ExecCycles || nodes != e.Nodes || dumpsSHA != e.DumpsSHA256 {
		return fmt.Errorf("%s: got exec_cycles=%d nodes=%d dumps=%.12s, want %d %d %.12s",
			e.Key, execCycles, nodes, dumpsSHA, e.ExecCycles, e.Nodes, e.DumpsSHA256)
	}
	return nil
}

// allPoints lists every point any workload can draw, without repeats.
func allPoints() []Point {
	var pts []Point
	for _, s := range paperSweeps() {
		pts = append(pts, s...)
	}
	for b := 0; b < midscaleBlocks; b++ {
		pts = append(pts, midscaleBlock(0, b)...)
	}
	pts = append(pts, bgpdCatalogue()...)
	seen := map[string]bool{}
	out := pts[:0]
	for _, p := range pts {
		if !seen[p.Key()] {
			seen[p.Key()] = true
			out = append(out, p)
		}
	}
	return out
}

// collectivesOnly builds p's program to read its communication class.
func collectivesOnly(cfg bgp.RunConfig) (bool, error) {
	nc := nas.Config{Class: cfg.Class, Ranks: cfg.Ranks, Opts: cfg.Opts}
	var app *nas.App
	var err error
	if cfg.Spec != nil {
		app, err = workload.Build(cfg.Spec, nc)
	} else {
		var b *nas.Benchmark
		if b, err = nas.ByName(cfg.Benchmark); err == nil {
			nc.Ranks = b.RanksFor(cfg.Ranks)
			app, err = b.Build(nc)
		}
	}
	if err != nil {
		return false, err
	}
	return app.CollectivesOnly, nil
}

// regenExpected simulates every drawable point and rewrites the table.
func regenExpected() error {
	hpl, err := readHPL()
	if err != nil {
		return err
	}
	pts := allPoints()
	entries := make([]Entry, 0, len(pts))
	const batch = 32 // bounds the dumps held in memory at once
	for lo := 0; lo < len(pts); lo += batch {
		hi := min(lo+batch, len(pts))
		cfgs := make([]bgp.RunConfig, 0, hi-lo)
		for _, p := range pts[lo:hi] {
			cfg, err := p.RunConfig(hpl)
			if err != nil {
				return err
			}
			cfgs = append(cfgs, cfg)
		}
		results, err := bgp.RunAll(context.Background(), cfgs, bgp.SweepConfig{Workers: runtime.NumCPU()})
		if err != nil {
			return err
		}
		for i, res := range results {
			all, node0, err := digest(res)
			if err != nil {
				return err
			}
			co, err := collectivesOnly(cfgs[i])
			if err != nil {
				return err
			}
			entries = append(entries, Entry{
				Key: pts[lo+i].Key(), ExecCycles: res.Metrics.ExecCycles, Nodes: res.Metrics.Nodes,
				DumpsSHA256: all, Node0SHA256: node0, CollectivesOnly: co,
			})
		}
		fmt.Fprintf(os.Stderr, "regen: %d/%d points\n", hi, len(pts))
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	f, err := os.Create(expectedPath)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("[\n")
	for i, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			f.Close()
			return err
		}
		w.Write(line)
		if i < len(entries)-1 {
			w.WriteString(",")
		}
		w.WriteString("\n")
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
