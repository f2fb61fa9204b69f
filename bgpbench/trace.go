package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bgpsim/internal/obs"
)

// Span is one timed interval recorded by the benchmark around a call into
// the program. Times are Unix nanoseconds so that spans recorded in child
// processes merge into the parent's trace unchanged; Parent 0 marks a root.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. A nil tracer records nothing, so untraced
// runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	spans []Span
}

// open starts a span and returns its id (0 on a nil tracer).
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

// close ends span id.
func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start.UnixNano(), End: end.UnixNano()})
	t.mu.Unlock()
}

// graft appends spans recorded elsewhere (a child process) under parent,
// renumbering their ids.
func (t *tracer) graft(parent int, spans []Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// selfTimes sums each span name's self time: its duration minus the part
// of it that its children cover.
func selfTimes(spans []Span) map[string]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// writeTrace writes the spans as JSON lines.
func writeTrace(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanObserver is the traced runs' Observer. It feeds a metrics-only
// obs.Recorder, whose Tracing() is false: any tracing observer makes
// bgp.Run install span hooks that force the serial scheduler and turn the
// epoch memo off, so the traced run would measure a different program.
// Phase wall times also become spans under the current parent span.
type spanObserver struct {
	*obs.Recorder
	t      *tracer
	parent atomic.Int64
}

func newSpanObserver(t *tracer) *spanObserver {
	return &spanObserver{Recorder: obs.NewRecorder(obs.NewRegistry(), nil), t: t}
}

// PhaseDone implements obs.Observer.
func (o *spanObserver) PhaseDone(label string, phase obs.Phase, wall time.Duration) {
	o.Recorder.PhaseDone(label, phase, wall)
	end := time.Now()
	o.t.add("phase."+string(phase), int(o.parent.Load()), end.Add(-wall), end)
}

// runtimeSampler tracks the Go heap peak and GC CPU share of a process.
type runtimeSampler struct {
	stop, done chan struct{}
	peak       uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startRuntimeSampler() *runtimeSampler {
	rs := &runtimeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(rs.done)
		sample := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > rs.peak {
				rs.peak = v
			}
			select {
			case <-rs.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return rs
}

// finish stops the sampler and returns the heap peak in bytes and the GC
// CPU time and total CPU time in seconds.
func (rs *runtimeSampler) finish() (peak uint64, gcCPU, totalCPU float64) {
	close(rs.stop)
	<-rs.done
	sample := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(sample)
	return rs.peak, sample[0].Value.Float64(), sample[1].Value.Float64()
}
