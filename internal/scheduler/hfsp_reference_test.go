package scheduler_test

import (
	"fmt"
	"slices"
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

// refHFSP is HFSP's decision logic as it was before the scheduler
// cached job sizes, pruned its job list and stopped sorting in check:
// every decision re-derives the size order from every job ever
// submitted with a stable insertion sort, and the starvation and
// suspension maps are never pruned. The differential test holds the
// production HFSP to it. Keep it naive: it is the specification.
type refHFSP struct {
	jobs         []*mapreduce.Job
	delay        time.Duration
	adv          advisor.Advisor
	resident     func(mapreduce.TaskID) int64
	starvedSince map[mapreduce.JobID]time.Duration
	suspended    map[mapreduce.TaskID]mapreduce.JobID
}

// remainingSize estimates a job's remaining virtual size in bytes.
func (r *refHFSP) remainingSize(job *mapreduce.Job) float64 {
	var total int64
	for _, t := range job.MapTasks() {
		total += t.Block().Size
	}
	rem := float64(total) * (1 - job.Progress())
	if rem < 0 {
		rem = 0
	}
	return rem
}

// ordered returns live jobs ordered by remaining size (smallest first,
// ties by submission).
func (r *refHFSP) ordered() []*mapreduce.Job {
	var live []*mapreduce.Job
	for _, j := range r.jobs {
		if j.State() == mapreduce.JobPending || j.State() == mapreduce.JobRunning {
			live = append(live, j)
		}
	}
	for i := 1; i < len(live); i++ {
		for k := i; k > 0 && r.remainingSize(live[k]) < r.remainingSize(live[k-1]); k-- {
			live[k], live[k-1] = live[k-1], live[k]
		}
	}
	return live
}

func refHasPending(job *mapreduce.Job) bool {
	for _, t := range job.Tasks() {
		if t.State() == mapreduce.TaskPending {
			return true
		}
	}
	return false
}

func refMapsDone(job *mapreduce.Job) bool {
	for _, t := range job.MapTasks() {
		if t.State() != mapreduce.TaskSucceeded {
			return false
		}
	}
	return true
}

// resumeChoice is the task Assign tries to resume on tt: the suspended
// task of the highest-ranked job, unless a smaller job has pending
// tasks or tt has no free slot.
func (r *refHFSP) resumeChoice(ordered []*mapreduce.Job, tt mapreduce.TaskTrackerInfo) (mapreduce.TaskID, bool) {
	rank := make(map[mapreduce.JobID]int, len(ordered))
	for i, j := range ordered {
		rank[j.ID()] = i
	}
	bestRank := len(ordered)
	var best mapreduce.TaskID
	for _, tid := range tt.SuspendedTasks {
		if jid, ok := r.suspended[tid]; ok {
			if rk, live := rank[jid]; live && rk < bestRank {
				bestRank, best = rk, tid
			}
		}
	}
	if best == (mapreduce.TaskID{}) || tt.FreeMapSlots <= 0 {
		return mapreduce.TaskID{}, false
	}
	for i := 0; i < bestRank; i++ {
		if refHasPending(ordered[i]) {
			return mapreduce.TaskID{}, false
		}
	}
	return best, true
}

// assignments are the launches Assign makes with free slots left after
// its resume.
func (r *refHFSP) assignments(ordered []*mapreduce.Job, free int) []mapreduce.Assignment {
	var out []mapreduce.Assignment
	taken := make(map[mapreduce.TaskID]bool)
	for _, job := range ordered {
		for _, t := range job.Tasks() {
			if free <= 0 {
				return out
			}
			if t.State() != mapreduce.TaskPending || taken[t.ID()] {
				continue
			}
			if t.ID().Type == mapreduce.ReduceTask && !refMapsDone(job) {
				continue
			}
			taken[t.ID()] = true
			out = append(out, mapreduce.Assignment{Task: t.ID()})
			free--
		}
	}
	return out
}

// pick is check's decision at now: the smallest job with pending work
// and, once it has been starved past the delay, the victim among the
// running tasks of the jobs ranked below it (nil when none). Like check,
// it records a first sighting of the starved job.
func (r *refHFSP) pick(now time.Duration) (*mapreduce.Job, *mapreduce.Task) {
	ordered := r.ordered()
	if len(ordered) < 2 {
		return nil, nil
	}
	starvedRank := -1
	for i, j := range ordered {
		if refHasPending(j) {
			starvedRank = i
			break
		}
	}
	if starvedRank < 0 {
		return nil, nil
	}
	starved := ordered[starvedRank]
	since, ok := r.starvedSince[starved.ID()]
	if !ok {
		r.starvedSince[starved.ID()] = now
		return starved, nil
	}
	if now-since < r.delay {
		return starved, nil
	}
	var cands []advisor.Candidate
	var tasks []*mapreduce.Task
	for _, j := range ordered[starvedRank+1:] {
		for _, t := range j.Tasks() {
			if t.State() != mapreduce.TaskRunning {
				continue
			}
			var resident int64
			if r.resident != nil {
				resident = r.resident(t.ID())
			}
			cands = append(cands, advisor.Candidate{
				ID:            t.ID().String(),
				Progress:      t.Progress(),
				ResidentBytes: resident,
				StartedAt:     t.FirstLaunchAt(),
			})
			tasks = append(tasks, t)
		}
	}
	d := r.adv.Decide(advisor.Request{Candidates: cands})
	if d.Victim == advisor.NoVictim {
		return starved, nil
	}
	return starved, tasks[d.Victim]
}

// hfspDiff is the JobTracker's scheduler in the differential test. It
// forwards every call to the production HFSP and, at every Assign and
// every check, first asks the reference what it would decide on the
// same JobTracker state.
type hfspDiff struct {
	t        *testing.T
	eng      *sim.Engine
	jt       *mapreduce.JobTracker
	h        *scheduler.HFSP
	ref      *refHFSP
	prim     core.Primitive
	interval time.Duration

	// What the run exercised.
	assigns, resumes, checks, victims, ties, suspendedKills int
}

func (d *hfspDiff) JobSubmitted(j *mapreduce.Job) {
	d.ref.jobs = append(d.ref.jobs, j)
	d.h.JobSubmitted(j)
}

func (d *hfspDiff) JobCompleted(j *mapreduce.Job) { d.h.JobCompleted(j) }

func (d *hfspDiff) TaskProgressed(t *mapreduce.Task, p float64) { d.h.TaskProgressed(t, p) }

func (d *hfspDiff) Assign(tt mapreduce.TaskTrackerInfo) []mapreduce.Assignment {
	d.assigns++
	ordered := d.ref.ordered()
	for i := 1; i < len(ordered); i++ {
		if d.ref.remainingSize(ordered[i]) == d.ref.remainingSize(ordered[i-1]) {
			d.ties++
			break
		}
	}
	want, wantOK := d.ref.resumeChoice(ordered, tt)
	got, gotOK := d.h.ResumeChoice(tt)
	if want != got || wantOK != gotOK {
		d.t.Fatalf("at %v, Assign #%d on %s: resume %v (%v), reference resumes %v (%v)",
			d.eng.Now(), d.assigns, tt.Name, got, gotOK, want, wantOK)
	}
	// ResumeTask fails exactly when the task is no longer suspended.
	resumable := false
	if wantOK {
		task, ok := d.jt.Task(want)
		resumable = ok && task.State() == mapreduce.TaskSuspended
	}
	before := d.h.Resumes()
	out := d.h.Assign(tt)
	resumed := d.h.Resumes() - before
	if resumed != 0 && resumed != 1 || (resumed == 1) != resumable {
		d.t.Fatalf("at %v, Assign #%d: %d resumes of %v, want resumable=%v",
			d.eng.Now(), d.assigns, resumed, want, resumable)
	}
	if resumed == 1 {
		d.resumes++
		delete(d.ref.suspended, want)
	}
	if ref := d.ref.assignments(ordered, tt.FreeMapSlots-resumed); !slices.Equal(out, ref) {
		d.t.Fatalf("at %v, Assign #%d: assignments %v, reference %v", d.eng.Now(), d.assigns, out, ref)
	}
	return out
}

// check runs one preemption check of both and re-arms itself, as
// HFSP's own check loop does.
func (d *hfspDiff) check() {
	defer d.eng.Schedule(d.interval, d.check)
	d.checks++
	wantStarved, wantVictim := d.ref.pick(d.eng.Now())
	before := d.h.Preemptions()
	gotStarved, gotVictim := d.h.CheckStep()
	if gotStarved != wantStarved || gotVictim != wantVictim {
		d.t.Fatalf("at %v, check #%d: starved %s victim %s, reference starved %s victim %s",
			d.eng.Now(), d.checks, jobName(gotStarved), taskName(gotVictim),
			jobName(wantStarved), taskName(wantVictim))
	}
	if d.h.Preemptions() == before {
		return
	}
	d.victims++
	delete(d.ref.starvedSince, wantStarved.ID())
	if d.prim == core.Suspend {
		d.ref.suspended[wantVictim.ID()] = wantVictim.Job().ID()
	}
}

func jobName(j *mapreduce.Job) string {
	if j == nil {
		return "<none>"
	}
	return string(j.ID())
}

func taskName(t *mapreduce.Task) string {
	if t == nil {
		return "<none>"
	}
	return t.IDString()
}

// diffCase is one differential run.
type diffCase struct {
	name  string
	prim  core.Primitive
	specs []workload.JobSpec
	delay time.Duration
	// policy is the advisor's; 0 takes HFSP's default advisor.
	policy advisor.Policy
	// killEvery, when set, terminally kills a live job at this period,
	// preferring one with a suspended task.
	killEvery time.Duration
}

// runDiff replays c through a 2x2-slot cluster under hfspDiff.
func runDiff(t *testing.T, c diffCase, seed uint64) *hfspDiff {
	t.Helper()
	ccfg := mapreduce.DefaultClusterConfig()
	ccfg.Nodes = 2
	ccfg.Node.MapSlots = 2
	ccfg.Seed = seed
	cluster, err := mapreduce.NewCluster(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	jt := cluster.JobTracker()
	eng := cluster.Engine()
	resident := func(id mapreduce.TaskID) int64 {
		if task, ok := jt.Task(id); ok {
			return task.ResidentBytes()
		}
		return 0
	}
	adv := advisor.Advisor{}
	if c.policy != 0 {
		if adv, err = advisor.New(advisor.Config{Policy: c.policy, Primitive: c.prim}); err != nil {
			t.Fatal(err)
		}
	}
	cfg := scheduler.DefaultHFSPConfig()
	cfg.PreemptionDelay = c.delay
	cfg.Resident = resident
	h, err := scheduler.NewHFSPUnarmed(eng, jt, preemptorFor(t, cluster, c.prim), adv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refAdv := adv
	if !refAdv.Valid() {
		if refAdv, err = advisor.New(advisor.Config{Policy: advisor.SmallestMemory, Primitive: c.prim}); err != nil {
			t.Fatal(err)
		}
	}
	d := &hfspDiff{
		t: t, eng: eng, jt: jt, h: h, prim: c.prim, interval: cfg.CheckInterval,
		ref: &refHFSP{
			delay:        cfg.PreemptionDelay,
			adv:          refAdv,
			resident:     resident,
			starvedSince: make(map[mapreduce.JobID]time.Duration),
			suspended:    make(map[mapreduce.TaskID]mapreduce.JobID),
		},
	}
	jt.SetScheduler(d)
	eng.Schedule(cfg.CheckInterval, d.check)
	if c.killEvery > 0 {
		var kill func()
		kill = func() {
			if killOneJob(jt) {
				d.suspendedKills++
			}
			eng.Schedule(c.killEvery, kill)
		}
		eng.Schedule(c.killEvery, kill)
	}
	if _, err := workload.InstallWindowed(cluster, c.specs, 0); err != nil {
		t.Fatal(err)
	}
	if !cluster.RunUntilPlannedJobsDone(len(c.specs), 24*time.Hour) {
		t.Fatalf("%s did not finish", c.name)
	}
	// One more decision drops every finished job and its bookkeeping.
	h.ResumeChoice(mapreduce.TaskTrackerInfo{FreeMapSlots: 1})
	if jobs, suspended := h.Bookkeeping(); jobs+suspended != 0 {
		t.Errorf("%s: after the run HFSP keeps %d jobs and %d suspension entries",
			c.name, jobs, suspended)
	}
	return d
}

// killOneJob fails a live job, preferring one with a suspended task, so
// HFSP must drop suspension entries of a terminal job. It reports
// whether the killed job had one.
func killOneJob(jt *mapreduce.JobTracker) bool {
	var victim *mapreduce.Job
	for _, j := range jt.Jobs() {
		if s := j.State(); s != mapreduce.JobPending && s != mapreduce.JobRunning {
			continue
		}
		if victim == nil {
			victim = j
		}
		for i := 0; i < j.NumTasks(); i++ {
			if j.TaskAt(i).State() == mapreduce.TaskSuspended {
				jt.KillJob(j.ID())
				return true
			}
		}
	}
	if victim != nil {
		jt.KillJob(victim.ID())
	}
	return false
}

func genSpecs(t *testing.T, sc genload.Scenario, seed uint64) []workload.JobSpec {
	t.Helper()
	specs, err := sc.Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// mixedSpecs draws multi-block jobs of widely spread sizes that arrive
// while bigger ones run, so small jobs starve and preempt. Every other
// job has a reduce.
func mixedSpecs(t *testing.T, seed uint64) []workload.JobSpec {
	t.Helper()
	sc := genload.Default()
	sc.Jobs, sc.BurstSize, sc.BurstGap = 24, 3, 15*time.Second
	sc.SizeMu, sc.SizeSigma, sc.MinInputBytes = 20, 1.2, 64<<20
	sc.MapParseRate = 8e6
	specs := genSpecs(t, sc, seed)
	for i := 0; i < len(specs); i += 2 {
		conf := &specs[i].Conf
		conf.NumReduces, conf.MapOutputRatio = 1, 0.5
		conf.ReduceRate, conf.ShuffleSortRate = 32e6, 32e6
	}
	return specs
}

func traceSpecs(t *testing.T, jobs int, seed uint64) []workload.JobSpec {
	t.Helper()
	trace, err := workload.SynthesizeTrace(jobs, seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.NewReplayBackend(workload.ReplayConfig{Jobs: trace, TimeScale: 10})
	if err != nil {
		t.Fatal(err)
	}
	return b.Specs(0)
}

// TestHFSPMatchesReference runs HFSP under the suspend and kill
// primitives on genload scenarios (including equal-sized jobs, whose
// order only the submission tie-break decides), randomized scenarios,
// synthesized SWIM traces and a run that kills jobs holding suspended
// tasks, and at every Assign and every check asserts that HFSP picks
// the same resume, assignments, starved job and victim as the
// reference on the same JobTracker state.
func TestHFSPMatchesReference(t *testing.T) {
	equal := genload.Default()
	equal.Jobs, equal.SizeSigma, equal.BurstGap = 16, 0, 4*time.Second
	def := genload.Default()
	def.Jobs = 16

	var cases []diffCase
	for _, prim := range []core.Primitive{core.Suspend, core.Kill} {
		cases = append(cases,
			diffCase{name: "default", prim: prim, specs: genSpecs(t, def, 1), delay: def.StarvationTimeout, policy: advisor.MostProgress},
			diffCase{name: "mixed", prim: prim, specs: mixedSpecs(t, 5), delay: 3 * time.Second, policy: advisor.MostProgress},
			diffCase{name: "equal", prim: prim, specs: genSpecs(t, equal, 2), delay: equal.StarvationTimeout, policy: advisor.MostProgress},
			diffCase{name: "equal-smallest-memory", prim: prim, specs: genSpecs(t, equal, 3), delay: time.Second},
			diffCase{name: "trace", prim: prim, specs: traceSpecs(t, 120, 7), delay: 5 * time.Second, policy: advisor.MostProgress},
			diffCase{name: "kill-jobs", prim: prim, specs: mixedSpecs(t, 6), delay: 2 * time.Second,
				policy: advisor.Youngest, killEvery: 45 * time.Second},
		)
	}
	rng := sim.NewRNG(11)
	for i := 0; i < 4; i++ {
		sc := genload.Randomize(rng)
		cases = append(cases, diffCase{name: fmt.Sprintf("random%d", i), prim: core.Suspend,
			specs: genSpecs(t, sc, uint64(20+i)), delay: sc.StarvationTimeout, policy: advisor.LeastProgress})
	}

	var victims, resumes, ties, leftover int
	for i, c := range cases {
		t.Run(fmt.Sprintf("%s-%v", c.name, c.prim), func(t *testing.T) {
			d := runDiff(t, c, uint64(i+1))
			if d.assigns == 0 || d.checks == 0 {
				t.Fatalf("compared %d assigns and %d checks", d.assigns, d.checks)
			}
			if c.name == "equal" && d.ties == 0 {
				t.Error("no decision saw two jobs of equal remaining size")
			}
			if c.killEvery > 0 && c.prim == core.Suspend && d.suspendedKills == 0 {
				t.Error("no killed job held a suspended task")
			}
			victims += d.victims
			resumes += d.resumes
			ties += d.ties
			leftover += len(d.ref.starvedSince)
			t.Logf("%d assigns (%d with ties), %d checks, %d preemptions, %d resumes",
				d.assigns, d.ties, d.checks, d.victims, d.resumes)
		})
	}
	if victims == 0 || resumes == 0 || ties == 0 {
		t.Errorf("runs made %d preemptions and %d resumes and saw %d ties; each must occur", victims, resumes, ties)
	}
	// The reference never forgets a starved job; HFSP keeps that state
	// in its job records, which leave with the job.
	if leftover == 0 {
		t.Error("no run left a starvation entry of a finished job behind in the reference")
	}
}
