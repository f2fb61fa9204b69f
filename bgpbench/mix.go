package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"bgpsim/internal/obs"
	"bgpsim/internal/server"
)

// bgpd-mix runs server.New in the child process behind httptest, on an
// empty checkpoint directory, and drives it with Clients closed-loop
// clients. There is no recorded bgpd traffic; the job mix is synthetic
// (see schedule.go for its shape).

type mixReq struct {
	Seed    uint64 `json:"seed"`
	Clients int    `json:"clients"`
	// Dir is the parent directory for the checkpoint directories.
	Dir string `json:"dir"`
	// Each client stops submitting once Seconds have passed or it has
	// submitted JobsPerClient jobs, whichever bound is set.
	Seconds       float64 `json:"seconds,omitempty"`
	JobsPerClient int     `json:"jobs_per_client,omitempty"`
	// SetupRepeats is how many times the server is booted; all but the
	// last boot are closed at once and only time the set-up.
	SetupRepeats int `json:"setup_repeats"`
}

// jobRec is one job's outcome, as a client saw it.
type jobRec struct {
	Kind string `json:"kind"`
	OK   bool   `json:"ok"`
	Err  string `json:"err,omitempty"`
	// Latency is submit to last byte of the fetched dump; Submit, Wait and
	// Fetch split it into POST, polling until done, and the CSV plus dump
	// GETs. All in nanoseconds.
	Latency int64 `json:"latency_ns"`
	Submit  int64 `json:"submit_ns"`
	Wait    int64 `json:"wait_ns"`
	Fetch   int64 `json:"fetch_ns"`
	// NodeCycles counts the freshly simulated point of a cold job.
	NodeCycles float64 `json:"node_cycles,omitempty"`
	Fresh      bool    `json:"fresh,omitempty"`
	CollOnly   bool    `json:"coll_only,omitempty"`
}

type mixResp struct {
	SetupNS  []int64           `json:"setup_ns"`
	Jobs     []jobRec          `json:"jobs"`
	Elapsed  int64             `json:"elapsed_ns"`
	Counters map[string]uint64 `json:"counters"`
}

// bootServer starts a server on an empty directory and waits for /readyz.
func bootServer(dir string, workers int) (*server.Server, *httptest.Server, error) {
	srv, err := server.New(server.Config{CheckpointDir: dir, RunWorkers: workers, JobWorkers: workers})
	if err != nil {
		return nil, nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz: %s", resp.Status)
		}
	}
	if err != nil {
		ts.Close()
		srv.Close()
		return nil, nil, err
	}
	return srv, ts, nil
}

func mixChild(req *mixReq, t *tracer) (*mixResp, error) {
	table, err := loadTable()
	if err != nil {
		return nil, err
	}
	hpl, err := readHPL()
	if err != nil {
		return nil, err
	}
	out := &mixResp{}
	var srv *server.Server
	var ts *httptest.Server
	for i := 0; i < req.SetupRepeats; i++ {
		dir := filepath.Join(req.Dir, fmt.Sprintf("ckpt%d", i))
		start := time.Now()
		id := t.open("server.New", 0)
		srv, ts, err = bootServer(dir, req.Clients)
		t.close(id)
		if err != nil {
			return nil, err
		}
		out.SetupNS = append(out.SetupNS, int64(time.Since(start)))
		if i < req.SetupRepeats-1 {
			ts.Close()
			srv.Close()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	defer srv.Close()
	defer ts.Close()

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: req.Clients}}
	defer client.CloseIdleConnections()
	cat := bgpdCatalogue()
	var deadline time.Time
	if req.Seconds > 0 {
		deadline = time.Now().Add(time.Duration(req.Seconds * float64(time.Second)))
	}
	recs := make([][]jobRec, req.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < req.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mc := newMixClient(req.Seed, c, req.Clients, cat)
			m := &mixer{base: ts.URL, client: client, table: table, hpl: hpl, tenant: fmt.Sprintf("client-%d", c), t: t}
			for n := 0; ; n++ {
				if (req.JobsPerClient > 0 && n >= req.JobsPerClient) || (!deadline.IsZero() && time.Now().After(deadline)) {
					return
				}
				recs[c] = append(recs[c], m.do(mc.Next(), n))
			}
		}(c)
	}
	wg.Wait()
	out.Elapsed = int64(time.Since(start))
	for _, r := range recs {
		out.Jobs = append(out.Jobs, r...)
	}
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	out.Counters = snap.Counters
	return out, nil
}

// mixer is one client's connection to the server.
type mixer struct {
	base   string
	client *http.Client
	table  Table
	hpl    string
	tenant string
	t      *tracer
}

// do submits one job, polls it until done, fetches its CSV and one dump,
// and checks both against the expected-output table.
func (m *mixer) do(job Job, n int) jobRec {
	rec := jobRec{Kind: job.Kind}
	if job.Kind == kindCold {
		e, err := m.table.lookup(job.Points[0])
		if err != nil {
			rec.Err = err.Error()
			return rec
		}
		rec.Fresh, rec.NodeCycles, rec.CollOnly = true, e.NodeCycles(), e.CollectivesOnly
	}
	err := m.roundTrip(job, n, &rec)
	if err != nil {
		rec.Err = err.Error()
	}
	rec.OK = err == nil
	return rec
}

func (m *mixer) roundTrip(job Job, n int, rec *jobRec) error {
	spec := server.JobSpec{Tenant: m.tenant}
	for _, p := range job.Points {
		spec.Runs = append(spec.Runs, p.RunSpec(m.hpl))
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	jobSpan := m.t.open("job."+job.Kind, 0)
	defer m.t.close(jobSpan)
	start := time.Now()
	var st server.JobStatus
	id := m.t.open("http.submit", jobSpan)
	code, err := m.call(http.MethodPost, "/v1/jobs", body, &st)
	m.t.close(id)
	if err != nil {
		return err
	}
	if code != http.StatusAccepted && code != http.StatusOK {
		return fmt.Errorf("submit: status %d", code)
	}
	submitted := time.Now()
	rec.Submit = int64(submitted.Sub(start))
	// Poll finely: the poll interval bounds how precisely a client sees
	// completion, and warm jobs finish within a few milliseconds.
	for backoff := 100 * time.Microsecond; st.State != server.StateDone; backoff = min(backoff*5/4, 2*time.Millisecond) {
		if st.State == server.StateFailed {
			return fmt.Errorf("job %s failed: %s", st.ID, st.Error)
		}
		time.Sleep(backoff)
		id := m.t.open("http.poll", jobSpan)
		code, err = m.call(http.MethodGet, "/v1/jobs/"+st.ID, nil, &st)
		m.t.close(id)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("poll: status %d", code)
		}
	}
	done := time.Now()
	rec.Wait = int64(done.Sub(submitted))

	id = m.t.open("http.fetch", jobSpan)
	csvBody, err := m.get("/v1/jobs/" + st.ID + "/result")
	run := n % len(job.Points)
	var dump []byte
	if err == nil {
		dump, err = m.get(fmt.Sprintf("/v1/jobs/%s/result?run=%d&node=0", st.ID, run))
	}
	m.t.close(id)
	end := time.Now()
	rec.Fetch = int64(end.Sub(done))
	rec.Latency = int64(end.Sub(start))
	if err != nil {
		return err
	}
	return m.check(job, csvBody, run, dump)
}

// check compares a job's CSV rows and fetched dump with the table.
func (m *mixer) check(job Job, csvBody []byte, run int, dump []byte) error {
	rows, err := csv.NewReader(bytes.NewReader(csvBody)).ReadAll()
	if err != nil {
		return fmt.Errorf("result csv: %w", err)
	}
	if len(rows) != len(job.Points)+1 {
		return fmt.Errorf("result csv: %d rows for %d runs", len(rows)-1, len(job.Points))
	}
	col := map[string]int{}
	for i, h := range rows[0] {
		col[h] = i
	}
	for i, p := range job.Points {
		e, err := m.table.lookup(p)
		if err != nil {
			return err
		}
		cycles, err1 := strconv.ParseUint(rows[i+1][col["exec_cycles"]], 10, 64)
		nodes, err2 := strconv.Atoi(rows[i+1][col["nodes"]])
		if err1 != nil || err2 != nil || cycles != e.ExecCycles || nodes != e.Nodes {
			return fmt.Errorf("%s: csv row %v, want exec_cycles=%d nodes=%d", e.Key, rows[i+1], e.ExecCycles, e.Nodes)
		}
	}
	e, err := m.table.lookup(job.Points[run])
	if err != nil {
		return err
	}
	sum := sha256.Sum256(dump)
	if got := hex.EncodeToString(sum[:]); got != e.Node0SHA256 {
		return fmt.Errorf("%s: node 0 dump sha256 %.12s, want %.12s", e.Key, got, e.Node0SHA256)
	}
	return nil
}

// call sends one request and decodes a JSON reply into v.
func (m *mixer) call(method, path string, body []byte, v any) (int, error) {
	req, err := http.NewRequest(method, m.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// get fetches a body that must answer 200.
func (m *mixer) get(path string) ([]byte, error) {
	resp, err := m.client.Get(m.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, data)
	}
	return data, nil
}
