package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"hadooppreempt/internal/advisor"
	"hadooppreempt/internal/core"
	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/metrics"
	"hadooppreempt/internal/scheduler"
	"hadooppreempt/internal/sweep"
)

// ReplayBackendName is the name the trace replayer reports to the sweep
// harness.
const ReplayBackendName = "replay"

// TraceShardAxis is the grid axis that picks one trace shard per cell.
const TraceShardAxis = "trace_shard"

// ReplayConfig configures a trace-replay backend.
type ReplayConfig struct {
	// Jobs is the parsed trace (see ParseTrace / ReadTraceFile).
	Jobs []TraceJob
	// Shards splits the trace into this many cells per repetition —
	// round-robin by trace position, so long traces spread across the
	// worker pool (and across processes via -shard). Default 1.
	Shards int
	// Reps repeats every trace shard with fresh cluster randomness.
	// Default 1.
	Reps int
	// Nodes and SlotsPerNode size each cell's simulated cluster
	// (defaults 2 and 2).
	Nodes        int
	SlotsPerNode int
	// Scheduler is the cluster scheduler: "fifo" (default), "fair" or
	// "hfsp". Fair and HFSP preempt with the suspend primitive and the
	// most-progress eviction policy, the paper's defaults.
	Scheduler string
	// MapParseRate is the synthetic mapper throughput applied to
	// replayed jobs (bytes/s; default 8e6, matching the SWIM-style
	// generator's classes).
	MapParseRate float64
	// MaxInputBytes caps a replayed job's input size (0 = no cap):
	// public traces contain multi-TB outliers that would swamp a
	// simulated cell.
	MaxInputBytes int64
	// TimeScale divides replayed submission times, compressing trace
	// inter-arrival gaps so day-long SWIM traces run in bounded sweep
	// cells (e.g. 24 turns a day of arrivals into an hour of virtual
	// time). It is a pure function of the trace, so replay output stays
	// deterministic across -parallel, -shard and distributed workers.
	// 0 means 1 (no compression); negative values are rejected.
	TimeScale float64
	// Deadline bounds each cell's virtual time (default 24h).
	Deadline time.Duration
	// Window bounds in-flight input materialization per cell: at most
	// this many jobs' HDFS inputs exist ahead of the submission
	// frontier (see InstallWindowed), so multi-thousand-job shards
	// stream instead of allocating every input up front. 0 means
	// unbounded. Output is byte-identical for any window, so it is
	// deliberately absent from Fingerprint: coordinator and workers
	// may disagree on it freely.
	Window int
}

// ReplayBackend replays a SWIM trace through simulated clusters: each
// grid cell materializes one trace shard as JobSpecs, boots an isolated
// cluster seeded from the cell's coordinate-derived seed, and runs the
// shard to completion. Because cells depend only on the parsed trace
// and their Point, replay output is identical at any parallelism and
// across process sharding, exactly like the simulator backend.
type ReplayBackend struct {
	cfg ReplayConfig
}

// NewReplayBackend validates the configuration and builds the backend.
func NewReplayBackend(cfg ReplayConfig) (*ReplayBackend, error) {
	if len(cfg.Jobs) == 0 {
		return nil, fmt.Errorf("workload: replay needs a non-empty trace")
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Shards > len(cfg.Jobs) {
		return nil, fmt.Errorf("workload: %d trace shards for %d jobs", cfg.Shards, len(cfg.Jobs))
	}
	if cfg.Reps < 1 {
		cfg.Reps = 1
	}
	if cfg.Nodes < 1 {
		cfg.Nodes = 2
	}
	if cfg.SlotsPerNode < 1 {
		cfg.SlotsPerNode = 2
	}
	if cfg.Scheduler == "" {
		cfg.Scheduler = "fifo"
	}
	switch cfg.Scheduler {
	case "fifo", "fair", "hfsp":
	default:
		return nil, fmt.Errorf("workload: unknown replay scheduler %q (want fifo, fair or hfsp)", cfg.Scheduler)
	}
	if cfg.MapParseRate <= 0 {
		cfg.MapParseRate = 8e6
	}
	if cfg.TimeScale < 0 {
		return nil, fmt.Errorf("workload: negative replay time scale %g", cfg.TimeScale)
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 24 * time.Hour
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("workload: negative replay window %d", cfg.Window)
	}
	return &ReplayBackend{cfg: cfg}, nil
}

// Name implements sweep.Backend.
func (b *ReplayBackend) Name() string { return ReplayBackendName }

// Fingerprint returns a content signature of everything a replay cell's
// outcome depends on beyond the grid structure: the parsed trace and
// the replay configuration. The distributed coordinator compares it at
// join time, so a worker holding a different copy of the trace (or
// different replay flags) is rejected instead of silently breaking the
// merged sweep's byte-identity.
func (b *ReplayBackend) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "replay shards=%d reps=%d nodes=%d slots=%d sched=%s rate=%g cap=%d timescale=%g deadline=%d\n",
		b.cfg.Shards, b.cfg.Reps, b.cfg.Nodes, b.cfg.SlotsPerNode, b.cfg.Scheduler,
		b.cfg.MapParseRate, b.cfg.MaxInputBytes, b.cfg.TimeScale, int64(b.cfg.Deadline))
	for _, j := range b.cfg.Jobs {
		fmt.Fprintf(h, "%q %d %d %d %d %d\n", j.ID, int64(j.SubmitAt), int64(j.Interarrival),
			j.InputBytes, j.ShuffleBytes, j.OutputBytes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Grid implements sweep.Backend: trace shard x repetition.
func (b *ReplayBackend) Grid() (sweep.Grid, error) {
	shards := make([]int, b.cfg.Shards)
	for i := range shards {
		shards[i] = i
	}
	return sweep.NewGrid(
		sweep.Ints(TraceShardAxis, shards...),
		sweep.Reps(b.cfg.Reps),
	), nil
}

// Specs materializes the trace shard owned by the given cell as
// ready-to-install job specifications.
func (b *ReplayBackend) Specs(shard int) []JobSpec {
	if shard < 0 || shard >= b.cfg.Shards {
		return nil
	}
	var specs []JobSpec
	for i := shard; i < len(b.cfg.Jobs); i += b.cfg.Shards {
		tj := b.cfg.Jobs[i]
		size := tj.InputBytes
		if b.cfg.MaxInputBytes > 0 && size > b.cfg.MaxInputBytes {
			size = b.cfg.MaxInputBytes
		}
		if size < 1<<20 {
			size = 1 << 20
		}
		at := tj.SubmitAt
		if b.cfg.TimeScale != 1 {
			at = time.Duration(float64(at) / b.cfg.TimeScale)
		}
		specs = append(specs, JobSpec{
			SubmitAt:   at,
			Class:      "trace",
			InputBytes: size,
			Conf: mapreduce.JobConf{
				Name:         tj.ID,
				InputPath:    "/replay/" + tj.ID,
				MapParseRate: b.cfg.MapParseRate,
			},
		})
	}
	return specs
}

// Cell implements sweep.Backend: it replays one trace shard through an
// isolated cluster and records the shard's sojourn statistics,
// preemption counts and swap traffic.
func (b *ReplayBackend) Cell(pt sweep.Point, rec *sweep.Recorder) error {
	specs := b.Specs(pt.Int(TraceShardAxis))
	ccfg := mapreduce.DefaultClusterConfig()
	ccfg.Nodes = b.cfg.Nodes
	ccfg.Node.MapSlots = b.cfg.SlotsPerNode
	ccfg.Seed = pt.Seed
	cluster, err := mapreduce.NewCluster(ccfg)
	if err != nil {
		return err
	}
	defer cluster.Close()
	if err := b.installScheduler(cluster); err != nil {
		return err
	}
	if _, err := InstallWindowed(cluster, specs, b.cfg.Window); err != nil {
		return err
	}
	if !cluster.RunUntilPlannedJobsDone(len(specs), b.cfg.Deadline) {
		return fmt.Errorf("workload: replay shard did not converge within %v: %s",
			b.cfg.Deadline, b.clusterLoad(cluster, len(specs)))
	}
	byName := make(map[string]*mapreduce.Job, len(specs))
	for _, j := range cluster.JobTracker().Jobs() {
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
	return nil
}

// installScheduler wires the configured scheduler into the cluster.
func (b *ReplayBackend) installScheduler(cluster *mapreduce.Cluster) error {
	jt := cluster.JobTracker()
	if b.cfg.Scheduler == "fifo" {
		jt.SetScheduler(scheduler.NewFIFO(jt))
		return nil
	}
	preemptor, err := core.NewPreemptor(cluster.Engine(), jt, core.Suspend, nil, core.CheckpointConfig{})
	if err != nil {
		return err
	}
	adv, err := advisor.New(advisor.Config{
		Policy: advisor.MostProgress, Primitive: core.Suspend,
	})
	if err != nil {
		return err
	}
	resident := func(id mapreduce.TaskID) int64 {
		if t, ok := jt.Task(id); ok {
			return t.ResidentBytes()
		}
		return 0
	}
	switch b.cfg.Scheduler {
	case "fair":
		fcfg := scheduler.DefaultFairConfig(b.cfg.Nodes * b.cfg.SlotsPerNode)
		fcfg.Resident = resident
		fair, err := scheduler.NewFair(cluster.Engine(), jt, preemptor, adv, fcfg)
		if err != nil {
			return err
		}
		jt.SetScheduler(fair)
	case "hfsp":
		hcfg := scheduler.DefaultHFSPConfig()
		hcfg.Resident = resident
		hfsp, err := scheduler.NewHFSP(cluster.Engine(), jt, preemptor, adv, hcfg)
		if err != nil {
			return err
		}
		jt.SetScheduler(hfsp)
	}
	return nil
}

// clusterLoad describes how far a replay got and how loaded the
// cluster is, so a shard that misses its deadline shows whether it was
// overloaded (a backlog of pending tasks behind busy slots, jobs still
// completing) or stalled (no recent completion, idle slots).
func (b *ReplayBackend) clusterLoad(cluster *mapreduce.Cluster, planned int) string {
	jobs := cluster.JobTracker().Jobs()
	completed, pending := 0, 0
	var last time.Duration
	for _, j := range jobs {
		if s := j.State(); s == mapreduce.JobSucceeded || s == mapreduce.JobFailed {
			completed++
			last = max(last, j.CompletedAt())
		}
		for i := 0; i < j.NumTasks(); i++ {
			if j.TaskAt(i).State() == mapreduce.TaskPending {
				pending++
			}
		}
	}
	slots := cluster.NumNodes() * b.cfg.SlotsPerNode
	busy := slots
	for i := 0; i < cluster.NumNodes(); i++ {
		busy -= cluster.Node(i).Tracker.FreeMapSlots()
	}
	return fmt.Sprintf("at virtual time %v, %d of %d jobs submitted, %d completed (the last at %v), "+
		"%d live; %d pending tasks, %d of %d slots busy",
		cluster.Engine().Now(), len(jobs), planned, completed, last, len(jobs)-completed,
		pending, busy, slots)
}
