package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"hadooppreempt/internal/advisor"
	"hadooppreempt/internal/coord"
	"hadooppreempt/internal/core"
	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/metrics"
	"hadooppreempt/internal/scheduler"
	"hadooppreempt/internal/sweep"
	"hadooppreempt/internal/workload"
)

// The wrappers below measure each layer from outside, at the public
// interfaces the program already offers: sweep.Backend,
// mapreduce.Scheduler, mapreduce.Listener, coord.Config.Middleware,
// coord.Config.WriteCheckpoint and coord.WorkerConfig.Client.

// tracedBackend opens a cell span around every Cell call.
type tracedBackend struct {
	sweep.Backend
	tr *tracer
}

func (b tracedBackend) Cell(pt sweep.Point, rec *sweep.Recorder) error {
	id := b.tr.begin("sweep.cell")
	defer b.tr.end(id)
	return b.Backend.Cell(pt, rec)
}

// Fingerprint forwards the wrapped backend's content fingerprint, which
// keys cache entries and coordinator joins.
func (b tracedBackend) Fingerprint() string { return sweep.BackendFingerprint(b.Backend) }

// timedScheduler times every Assign call of the wrapped scheduler.
type timedScheduler struct {
	mapreduce.Scheduler
	assign []time.Duration
}

func (s *timedScheduler) Assign(tt mapreduce.TaskTrackerInfo) []mapreduce.Assignment {
	start := time.Now()
	a := s.Scheduler.Assign(tt)
	s.assign = append(s.assign, time.Since(start))
	return a
}

// tracedReplay drives replay cells through the same public wiring as
// workload.ReplayBackend.Cell, with a timedScheduler and a
// countingListener attached, so the cluster's counters can be read
// after the cell. Its output must stay byte-identical to the backend
// it copies; every pass checks that.
type tracedReplay struct {
	*workload.ReplayBackend
	cfg workload.ReplayConfig
	tr  *tracer
}

func (b tracedReplay) Cell(pt sweep.Point, rec *sweep.Recorder) error {
	start := time.Now()
	specs := b.Specs(pt.Int(workload.TraceShardAxis))
	ccfg := mapreduce.DefaultClusterConfig()
	ccfg.Nodes = b.cfg.Nodes
	ccfg.Node.MapSlots = b.cfg.SlotsPerNode
	ccfg.Seed = pt.Seed
	cluster, err := mapreduce.NewCluster(ccfg)
	if err != nil {
		return err
	}
	defer cluster.Close()
	inner, err := newReplayScheduler(cluster, b.cfg)
	if err != nil {
		return err
	}
	sched := &timedScheduler{Scheduler: inner}
	jt := cluster.JobTracker()
	jt.SetScheduler(sched)
	listener := &countingListener{}
	jt.AddListener(listener)
	if _, err := workload.InstallWindowed(cluster, specs, b.cfg.Window); err != nil {
		return err
	}
	if !cluster.RunUntilPlannedJobsDone(len(specs), b.cfg.Deadline) {
		return fmt.Errorf("workload: replay shard did not converge within %v", b.cfg.Deadline)
	}
	byName := make(map[string]*mapreduce.Job, len(specs))
	for _, j := range jt.Jobs() {
		byName[j.Conf().Name] = j
	}
	var sojourns []float64
	var inputGB float64
	var suspensions, attempts int
	var swapOut, swapIn int64
	for _, spec := range specs {
		job, ok := byName[spec.Conf.Name]
		if !ok {
			return fmt.Errorf("workload: replayed job %s vanished", spec.Conf.Name)
		}
		sojourns = append(sojourns, (job.CompletedAt() - job.SubmittedAt()).Seconds())
		inputGB += float64(spec.InputBytes) / float64(1<<30)
		for _, t := range job.Tasks() {
			suspensions += t.Suspensions()
			attempts += t.Attempts()
			swapOut += t.SwapOutBytes()
			swapIn += t.SwapInBytes()
		}
	}
	s := metrics.Summarize(sojourns)
	rec.Observe("jobs", float64(len(specs)))
	rec.Observe("input_gb", inputGB)
	rec.Observe("sojourn_mean_s", s.Mean)
	rec.Observe("sojourn_p95_s", s.P95)
	rec.Observe("makespan_s", cluster.Engine().Now().Seconds())
	rec.Observe("suspensions", float64(suspensions))
	rec.Observe("attempts", float64(attempts))
	rec.Observe("swap_out_mb", float64(swapOut)/float64(1<<20))
	rec.Observe("swap_in_mb", float64(swapIn)/float64(1<<20))
	b.tr.noteCluster(cluster, time.Since(start), sched.assign, listener)
	return nil
}

// newReplayScheduler builds the scheduler workload.ReplayBackend
// installs for cfg.Scheduler: FIFO, or HFSP preempting with suspend and
// the most-progress advisor.
func newReplayScheduler(cluster *mapreduce.Cluster, cfg workload.ReplayConfig) (mapreduce.Scheduler, error) {
	jt := cluster.JobTracker()
	switch cfg.Scheduler {
	case "fifo":
		return scheduler.NewFIFO(jt), nil
	case "hfsp":
	default:
		return nil, fmt.Errorf("perfbench: no traced wiring for scheduler %q", cfg.Scheduler)
	}
	preemptor, err := core.NewPreemptor(cluster.Engine(), jt, core.Suspend, nil, core.CheckpointConfig{})
	if err != nil {
		return nil, err
	}
	adv, err := advisor.New(advisor.Config{Policy: advisor.MostProgress, Primitive: core.Suspend})
	if err != nil {
		return nil, err
	}
	hcfg := scheduler.DefaultHFSPConfig()
	hcfg.Resident = func(id mapreduce.TaskID) int64 {
		if t, ok := jt.Task(id); ok {
			return t.ResidentBytes()
		}
		return 0
	}
	return scheduler.NewHFSP(cluster.Engine(), jt, preemptor, adv, hcfg)
}

// middleware times every coordinator request on the server side.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.begin("coord.server" + r.URL.Path)
		next.ServeHTTP(w, r)
		d := t.end(id)
		t.mu.Lock()
		t.coord.server[r.URL.Path] = append(t.coord.server[r.URL.Path], d)
		t.mu.Unlock()
	})
}

// keepCheckpoint is the traced coordinator's checkpoint writer: it keeps
// a copy of every checkpoint for durableCheckpoints.
func (t *tracer) keepCheckpoint(_ string, data []byte) error {
	t.mu.Lock()
	t.coord.ckpts = append(t.coord.ckpts, append([]byte(nil), data...))
	t.mu.Unlock()
	return nil
}

// durableCheckpoints writes every kept checkpoint through the
// coordinator's default durable writer (temp file, fsync, rename) and
// returns the time each write took.
func (t *tracer) durableCheckpoints(dir string) ([]time.Duration, error) {
	if len(t.coord.ckpts) == 0 {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var ds []time.Duration
	for _, data := range t.coord.ckpts {
		start := time.Now()
		if err := coord.WriteFileDurable(filepath.Join(dir, "checkpoint.json"), data); err != nil {
			return ds, err
		}
		ds = append(ds, time.Since(start))
	}
	return ds, nil
}

// client returns a worker HTTP client whose transport times every round
// trip; it matches the worker's default client otherwise.
func (t *tracer) client() *http.Client {
	return &http.Client{Timeout: 30 * time.Second, Transport: roundTripper{t}}
}

type roundTripper struct{ t *tracer }

func (rt roundTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	id := rt.t.begin("coord.client" + r.URL.Path)
	resp, err := http.DefaultTransport.RoundTrip(r)
	d := rt.t.end(id)
	rt.t.mu.Lock()
	rt.t.coord.client = append(rt.t.coord.client, d)
	if r.URL.Path == "/v1/result" {
		rt.t.coord.uploads++
	}
	rt.t.mu.Unlock()
	return resp, err
}
