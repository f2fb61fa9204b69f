package main

import (
	"os"
	"reflect"
	"testing"
)

// The benchmark resolves its inputs relative to the repository root.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func mixJobs(seed uint64, client, clients, n int) []Job {
	c := newMixClient(seed, client, clients, bgpdCatalogue())
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = c.Next()
	}
	return jobs
}

func TestOneSeedOneSchedule(t *testing.T) {
	for _, seed := range []uint64{1, 2, 99} {
		for pass := 0; pass < 4; pass++ {
			if a, b := paperOrder(seed, pass), paperOrder(seed, pass); !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d pass %d: paper orders %v and %v", seed, pass, a, b)
			}
		}
		for blk := 0; blk < midscaleBlocks; blk++ {
			if a, b := midscaleBlock(seed, blk), midscaleBlock(seed, blk); !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d block %d: midscale blocks differ", seed, blk)
			}
		}
		if a, b := mixJobs(seed, 1, 2, 300), mixJobs(seed, 1, 2, 300); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: bgpd-mix job sequences differ", seed)
		}
	}
	if reflect.DeepEqual(mixJobs(1, 0, 2, 50), mixJobs(2, 0, 2, 50)) {
		t.Fatal("seeds 1 and 2 give the same bgpd-mix jobs")
	}
	if reflect.DeepEqual(midscaleBlock(1, 0), midscaleBlock(2, 0)) {
		t.Fatal("seeds 1 and 2 give the same midscale block")
	}
}

func TestMidscaleNeverRepeats(t *testing.T) {
	grid := len(midscaleBenches) * len(midscaleModes) * len(midscaleL3)
	for seed := uint64(0); seed < 20; seed++ {
		seen := map[string]bool{}
		for blk := 0; blk < midscaleBlocks; blk++ {
			mix := map[string]int{}
			for _, p := range midscaleBlock(seed, blk) {
				if seen[p.Key()] {
					t.Fatalf("seed %d: %s drawn twice", seed, p.Key())
				}
				seen[p.Key()] = true
				mix[p.Bench+" "+p.Mode]++
			}
			if len(mix) != len(midscaleBenches)*len(midscaleModes) {
				t.Fatalf("seed %d block %d: %d workload/mode pairs, want each once", seed, blk, len(mix))
			}
		}
		if len(seen) != grid {
			t.Fatalf("seed %d: %d configurations over all blocks, want %d", seed, len(seen), grid)
		}
	}
}

// The seed alone fixes which bgpd-mix jobs are cold and how many fresh
// simulations they need: a client's jobs never depend on another client's
// progress, each cold job needs exactly one fresh simulation, and no point
// is fresh twice.
func TestMixClassificationFixedBySeed(t *testing.T) {
	const n = 400
	fresh := map[string]bool{}
	for client := 0; client < 2; client++ {
		jobs := mixJobs(7, client, 2, n)
		cold := 0
		known := map[string]bool{}
		for i, j := range jobs {
			if len(j.Points) < 1 || len(j.Points) > maxJobPoints {
				t.Fatalf("job %d holds %d points", i, len(j.Points))
			}
			for k, p := range j.Points {
				isNew := !known[p.Key()]
				if isNew != (j.Kind == kindCold && k == 0) {
					t.Fatalf("client %d job %d (%s): point %d new=%v", client, i, j.Kind, k, isNew)
				}
				known[p.Key()] = true
			}
			if j.Kind == kindCold {
				cold++
				if fresh[j.Points[0].Key()] {
					t.Fatalf("%s is fresh twice", j.Points[0].Key())
				}
				fresh[j.Points[0].Key()] = true
			}
		}
		if want := n / len(blockKinds); cold != want {
			t.Fatalf("client %d: %d cold jobs of %d, want %d", client, cold, n, want)
		}
		again := mixJobs(7, client, 2, n)
		for i := range jobs {
			if again[i].Kind != jobs[i].Kind {
				t.Fatalf("client %d job %d: kind %s then %s", client, i, jobs[i].Kind, again[i].Kind)
			}
		}
	}
}

func TestTableCoversEveryDrawablePoint(t *testing.T) {
	table, err := loadTable()
	if err != nil {
		t.Fatal(err)
	}
	hpl, err := readHPL()
	if err != nil {
		t.Fatal(err)
	}
	check := func(p Point) {
		t.Helper()
		if _, err := table.lookup(p); err != nil {
			t.Fatal(err)
		}
		if _, err := p.RunConfig(hpl); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range allPoints() {
		check(p)
	}
	for seed := uint64(0); seed < 5; seed++ {
		for blk := 0; blk < midscaleBlocks; blk++ {
			for _, p := range midscaleBlock(seed, blk) {
				check(p)
			}
		}
		for _, j := range mixJobs(seed, 0, 1, 200) {
			for _, p := range j.Points {
				check(p)
			}
		}
	}
}

// A small bgpd-mix phase end to end: every job completes with output equal
// to the expected-output table, and the server simulates exactly the
// schedule's fresh points.
func TestMixPhase(t *testing.T) {
	req := &mixReq{Seed: 3, Clients: 2, Dir: t.TempDir(), JobsPerClient: len(blockKinds), SetupRepeats: 2}
	resp, err := mixChild(req, &tracer{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.SetupNS) != req.SetupRepeats {
		t.Fatalf("%d set-up times, want %d", len(resp.SetupNS), req.SetupRepeats)
	}
	fresh := 0
	for _, j := range resp.Jobs {
		if !j.OK {
			t.Fatalf("%s job failed: %s", j.Kind, j.Err)
		}
		if j.Fresh {
			fresh++
		}
	}
	if len(resp.Jobs) != req.Clients*req.JobsPerClient || fresh != req.Clients {
		t.Fatalf("%d jobs with %d fresh points, want %d and %d", len(resp.Jobs), fresh, req.Clients*req.JobsPerClient, req.Clients)
	}
	if miss := resp.Counters["server.cache.miss"]; miss != uint64(fresh) {
		t.Fatalf("server simulated %d runs, want %d", miss, fresh)
	}
}
