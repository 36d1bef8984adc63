package mapreduce_test

import (
	"fmt"
	"testing"
	"time"

	"hadooppreempt/internal/advisor"
	"hadooppreempt/internal/core"
	"hadooppreempt/internal/genload"
	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/scheduler"
	"hadooppreempt/internal/sim"
	"hadooppreempt/internal/workload"
)

// edgeCases counts, over a run, the two situations in which a task
// outside the obvious index membership still belongs in a history scan:
// a job failed by MaxTaskAttempts that keeps pending sibling tasks, and
// a requeued (pending) task killed by KillJob while it still records
// its old tracker.
type edgeCases struct {
	mapreduce.NopListener
	failedWithPending int
	killedRequeued    int
}

func (e *edgeCases) TaskStateChanged(t *mapreduce.Task, from, to mapreduce.TaskState, _ time.Duration) {
	switch {
	case from == mapreduce.TaskPending && to == mapreduce.TaskKilled && t.Tracker() != "":
		e.killedRequeued++
	case to == mapreduce.TaskFailed:
		// The job fails next, keeping whatever siblings are pending.
		j := t.Job()
		for i := 0; i < j.NumTasks(); i++ {
			if j.TaskAt(i).State() == mapreduce.TaskPending {
				e.failedWithPending++
				return
			}
		}
	}
}

// indexCase is one reference-model run: a scheduler, the primitive its
// preemptor uses, and whether chaosStep may also suspend, resume
// and kill attempts directly (safe only under FIFO, which keeps no
// preemption state of its own).
type indexCase struct {
	sched  string
	prim   core.Primitive
	direct bool
}

// TestIndexesMatchHistoryScan is the reference model for the
// JobTracker's incremental indexes: it runs genload scenarios with
// suspends, requeue-kills, KillJob and MaxTaskAttempts failures and,
// after every engine event (so after every heartbeat), asserts that the
// pending order and every tracker's task list equal a brute-force scan
// of all jobs' tasks (JobTracker.CheckIndexes).
func TestIndexesMatchHistoryScan(t *testing.T) {
	cases := []indexCase{
		{sched: "fifo", direct: true},
		{sched: "fair", prim: core.Suspend},
		{sched: "fair", prim: core.Kill},
		{sched: "hfsp", prim: core.Suspend},
	}
	var edges edgeCases
	for _, c := range cases {
		for seed := uint64(1); seed <= 2; seed++ {
			name := fmt.Sprintf("%s-%d-seed%d", c.sched, c.prim, seed)
			t.Run(name, func(t *testing.T) { runIndexCase(t, c, seed, &edges) })
		}
	}
	if edges.failedWithPending == 0 {
		t.Error("no run failed a job by MaxTaskAttempts while it had pending tasks")
	}
	if edges.killedRequeued == 0 {
		t.Error("no run killed a requeued task that still records its old tracker")
	}
}

func runIndexCase(t *testing.T, c indexCase, seed uint64, edges *edgeCases) {
	ccfg := mapreduce.DefaultClusterConfig()
	ccfg.Nodes = 2
	ccfg.Node.MapSlots = 2
	ccfg.Seed = seed
	ccfg.Engine.MaxTaskAttempts = 3
	cluster, err := mapreduce.NewCluster(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	jt := cluster.JobTracker()
	installIndexScheduler(t, cluster, c)
	jt.AddListener(edges)

	// Multi-block inputs give every job sibling tasks, so a failed task
	// can leave pending siblings behind. Every other job also gets a
	// reduce; the others can drain their pending maps after failing.
	sc := genload.Default()
	sc.Jobs = 12
	sc.SizeMu, sc.MinInputBytes = 21, 600<<20
	specs, err := sc.Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(specs); i += 2 {
		conf := &specs[i].Conf
		conf.NumReduces, conf.MapOutputRatio = 1, 0.5
		conf.ReduceRate, conf.ShuffleSortRate = 32e6, 32e6
	}
	if _, err := workload.Install(cluster, specs); err != nil {
		t.Fatal(err)
	}

	rng := sim.NewRNG(seed).Stream("index-chaos")
	eng := cluster.Engine()
	var tick func()
	tick = func() {
		chaosStep(cluster, rng, c.direct)
		eng.Schedule(5*time.Second, tick)
	}
	eng.Schedule(5*time.Second, tick)

	const deadline = 4 * time.Hour
	for !allTerminal(jt, len(specs)) && eng.StepUntil(deadline) {
		if err := jt.CheckIndexes(); err != nil {
			t.Fatalf("at %v: %v", eng.Now(), err)
		}
	}
	if !allTerminal(jt, len(specs)) {
		t.Fatalf("scenario did not finish within %v", deadline)
	}
}

func installIndexScheduler(t *testing.T, cluster *mapreduce.Cluster, c indexCase) {
	jt := cluster.JobTracker()
	if c.sched == "fifo" {
		jt.SetScheduler(scheduler.NewFIFO(jt))
		return
	}
	preemptor, err := core.NewPreemptor(cluster.Engine(), jt, c.prim, nil, core.CheckpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	adv, err := advisor.New(advisor.Config{Policy: advisor.MostProgress, Primitive: c.prim})
	if err != nil {
		t.Fatal(err)
	}
	var s mapreduce.Scheduler
	switch c.sched {
	case "fair":
		fcfg := scheduler.DefaultFairConfig(cluster.NumNodes() * 2)
		fcfg.PreemptionTimeout = 5 * time.Second
		s, err = scheduler.NewFair(cluster.Engine(), jt, preemptor, adv, fcfg)
	case "hfsp":
		s, err = scheduler.NewHFSP(cluster.Engine(), jt, preemptor, adv, scheduler.DefaultHFSPConfig())
	}
	if err != nil {
		t.Fatal(err)
	}
	jt.SetScheduler(s)
}

// chaosStep injects one random external event: a KillJob, a crashed
// attempt (which MaxTaskAttempts turns into a task and job failure on
// the second crash) or, with direct, a suspend, resume or attempt kill
// with or without requeue.
func chaosStep(cluster *mapreduce.Cluster, rng *sim.RNG, direct bool) {
	jt := cluster.JobTracker()
	var live, running, suspended []*mapreduce.Task
	// requeued jobs hold a pending task that still records the tracker
	// of its last attempt; KillJob prefers them, to reach the edge case.
	var jobs, requeued []*mapreduce.Job
	for _, j := range jt.Jobs() {
		if s := j.State(); s == mapreduce.JobSucceeded || s == mapreduce.JobFailed {
			continue
		}
		jobs = append(jobs, j)
		for i := 0; i < j.NumTasks(); i++ {
			task := j.TaskAt(i)
			switch task.State() {
			case mapreduce.TaskPending:
				if task.Tracker() != "" && (len(requeued) == 0 || requeued[len(requeued)-1] != j) {
					requeued = append(requeued, j)
				}
			case mapreduce.TaskRunning:
				running = append(running, task)
			case mapreduce.TaskSuspended:
				suspended = append(suspended, task)
			}
			if task.State().Live() {
				live = append(live, task)
			}
		}
	}
	if len(requeued) > 0 {
		jobs = requeued
	}
	pick := func(ts []*mapreduce.Task) *mapreduce.Task {
		if len(ts) == 0 {
			return nil
		}
		return ts[rng.Intn(len(ts))]
	}
	r := rng.Float64()
	switch {
	case r < 0.04:
		if len(jobs) > 0 {
			_ = jt.KillJob(jobs[rng.Intn(len(jobs))].ID())
		}
	case r < 0.12:
		cluster.Node(rng.Intn(cluster.NumNodes())).Tracker.CrashAttempt(rng.Intn(4))
	case !direct:
	case r < 0.25:
		if task := pick(live); task != nil {
			_ = jt.KillTaskAttempt(task.ID(), rng.Float64() < 0.8)
		}
	case r < 0.45:
		if task := pick(running); task != nil {
			_ = jt.SuspendTask(task.ID())
		}
	default:
		if task := pick(suspended); task != nil {
			_ = jt.ResumeTask(task.ID())
		}
	}
}

// allTerminal reports whether all planned jobs were submitted and
// reached a terminal state.
func allTerminal(jt *mapreduce.JobTracker, planned int) bool {
	jobs := jt.Jobs()
	if len(jobs) < planned {
		return false
	}
	for _, j := range jobs {
		if s := j.State(); s != mapreduce.JobSucceeded && s != mapreduce.JobFailed {
			return false
		}
	}
	return true
}
