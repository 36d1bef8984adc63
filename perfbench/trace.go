package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"hadooppreempt/internal/mapreduce"
)

// span is one timed interval at a layer boundary. Spans of one workload
// pass share a trace id; layer spans name the pass span as parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a traced run's spans and boundary counters in memory;
// write dumps the spans when the run ends. A nil *tracer records
// nothing, which is how untraced passes run the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	pass  int // id of the open pass span, 0 between passes
	trace int

	// Boundaries crossed too often for a span each keep durations only.
	assign []time.Duration

	sim   simCounters
	coord coordCounters
}

// simCounters sums the simulator layers' public counters over the
// clusters the benchmark drives itself.
type simCounters struct {
	events, heartbeats              uint64
	majorFaults, reclaimScans       int64
	pagedBytes, diskRequests        int64
	transitions, suspended, resumed int64
	tasks, attempts                 int64
	wasted                          time.Duration
	cellHost                        time.Duration // host time of those cells
	cells                           int
}

// coordCounters holds what the control plane's boundaries saw: request
// timings, checkpoints, uploads and leases.
type coordCounters struct {
	server  map[string][]time.Duration // by request path
	client  []time.Duration
	ckpts   [][]byte
	uploads int
	leases  int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), coord: coordCounters{server: map[string][]time.Duration{}}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// startPass opens a new trace and its root span, named after the pass
// kind (cold or warm).
func (t *tracer) startPass(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace++
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Trace: t.trace, Name: name, Start: t.now()})
	t.pass = len(t.spans)
	return t.pass
}

// begin opens a layer span under the current pass.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.pass, Trace: t.trace, Name: name, Start: t.now()})
	return len(t.spans)
}

// end closes a span opened by begin or startPass.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = t.now()
	if id == t.pass {
		t.pass = 0
	}
	return s.dur()
}

// coldDurations returns the lengths of the spans with the given name
// that a cold pass opened; warm passes repeat a variable number of times.
func (t *tracer) coldDurations(name string) []time.Duration {
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.Parent != 0 && t.spans[s.Parent-1].Name == "cold" {
			ds = append(ds, s.dur())
		}
	}
	return ds
}

// selfTime sums, over spans named parent, the part of each span that no
// child span named child covers. Children may overlap (parallel cells),
// so coverage is the union of their intervals.
func (t *tracer) selfTime(parent, child string) time.Duration {
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Name == child {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var self time.Duration
	for _, p := range t.spans {
		if p.Name != parent {
			continue
		}
		cs := kids[p.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := int64(0), p.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, p.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self += time.Duration(p.End-p.Start-covered) * time.Nanosecond
	}
	return self
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// noteCluster folds the public counters of a finished replay cluster.
func (t *tracer) noteCluster(c *mapreduce.Cluster, host time.Duration, assign []time.Duration, l *countingListener) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.sim
	s.cells++
	s.cellHost += host
	s.events += c.Engine().Fired()
	for i := 0; i < c.NumNodes(); i++ {
		n := c.Node(i)
		s.heartbeats += uint64(n.Tracker.Heartbeats())
		ms := n.Memory.Stats()
		s.majorFaults += ms.MajorFaults
		s.reclaimScans += ms.ReclaimScans
		s.pagedBytes += ms.PagedOutBytes + ms.PagedInBytes
		ds := n.Device.Stats()
		s.diskRequests += ds.Reads + ds.Writes
	}
	for _, j := range c.JobTracker().Jobs() {
		for _, task := range j.Tasks() {
			s.tasks++
			s.attempts += int64(task.Attempts())
			s.wasted += task.WastedWork()
		}
	}
	s.transitions += l.transitions
	s.suspended += l.suspended
	s.resumed += l.resumed
	t.assign = append(t.assign, assign...)
}

// countingListener counts task state transitions on the JobTracker's
// listener interface.
type countingListener struct {
	mapreduce.NopListener
	transitions, suspended, resumed int64
}

// TaskStateChanged implements mapreduce.Listener.
func (l *countingListener) TaskStateChanged(_ *mapreduce.Task, from, to mapreduce.TaskState, _ time.Duration) {
	l.transitions++
	switch {
	case to == mapreduce.TaskSuspended:
		l.suspended++
	case from == mapreduce.TaskMustResume && to == mapreduce.TaskRunning:
		l.resumed++
	}
}
