package scheduler

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"hadooppreempt/internal/advisor"
	"hadooppreempt/internal/core"
	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/sim"
)

// HFSPConfig parameterizes the size-based scheduler.
type HFSPConfig struct {
	// CheckInterval is the period of the preemption check.
	CheckInterval time.Duration
	// PreemptionDelay is how long a smaller job must be starved before a
	// bigger job's task is preempted. Keeping it above zero avoids
	// suspend/resume churn, the thrashing concern of §III-A.
	PreemptionDelay time.Duration
	// Resident optionally reports a task's resident memory for the
	// eviction policy.
	Resident func(mapreduce.TaskID) int64
}

// DefaultHFSPConfig returns moderate parameters.
func DefaultHFSPConfig() HFSPConfig {
	return HFSPConfig{
		CheckInterval:   time.Second,
		PreemptionDelay: 5 * time.Second,
	}
}

// HFSP is a size-based scheduler in the spirit of the authors' HFSP [24]:
// jobs are ordered by remaining (virtual) size — input bytes scaled by
// measured progress — and smaller jobs preempt the tasks of bigger ones
// using the configured preemption primitive. The paper's §VI reports
// preliminary results of exactly this combination.
//
// Every decision costs O(live jobs + their tasks) and allocates nothing
// in steady state: job sizes are summed once at submission, finished
// jobs leave the job list (and the suspension map) at the next
// decision, and each live job's remaining size is computed once per
// decision.
type HFSP struct {
	eng       *sim.Engine
	jt        *mapreduce.JobTracker
	cfg       HFSPConfig
	preemptor *core.Preemptor
	adv       advisor.Advisor

	// jobs holds the live (pending or running) jobs in submission order.
	jobs []*hfspJob
	// submitted counts JobSubmitted calls; it numbers the jobs.
	submitted int
	// order is Assign's reused scratch: jobs sorted smallest first.
	order []*hfspJob
	// suspended maps the tasks HFSP suspended to their live job.
	suspended map[mapreduce.TaskID]*hfspJob
	// out is reused across Assign calls; the JobTracker consumes the
	// assignments before the next call.
	out []mapreduce.Assignment

	// Scratch for check's victim selection, reused so a preemption
	// decision allocates nothing; candTasks and candJobs parallel cands.
	cands     []advisor.Candidate
	candTasks []*mapreduce.Task
	candJobs  []*hfspJob

	// checkFn is check as a func value, made once so re-arming the
	// check loop does not allocate a method value each time.
	checkFn func()

	preemptions int
	resumes     int
}

// hfspJob is HFSP's record of one submitted job.
type hfspJob struct {
	job *mapreduce.Job
	// seq is the submission index. It breaks remaining-size ties, so
	// equal-sized jobs are served in submission order.
	seq int
	// total is the job's map-input bytes. A job's blocks are fixed at
	// submission, so it is summed once.
	total int64
	// key is the remaining size as of the current decision and rank the
	// job's position in Assign's order.
	key  float64
	rank int
	// seenStarved records that check found the job starved, at
	// starvedSince, and has not preempted on its behalf since.
	seenStarved  bool
	starvedSince time.Duration
}

// remainingSize estimates the job's remaining virtual size in bytes.
func (hj *hfspJob) remainingSize() float64 {
	rem := float64(hj.total) * (1 - hj.job.Progress())
	if rem < 0 {
		rem = 0
	}
	return rem
}

// bySize orders jobs by (remaining size, submission index), smallest
// first. The order is total, so any sort yields what a stable sort by
// size alone over the submission-ordered list does. Sizes are never
// NaN, so plain comparisons suffice.
func bySize(a, b *hfspJob) int {
	switch {
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	}
	return cmp.Compare(a.seq, b.seq)
}

var _ mapreduce.Scheduler = (*HFSP)(nil)

// NewHFSP creates the scheduler and starts its check loop. The advisor
// decides victims on the preemption path; the zero Advisor selects the
// default (smallest-memory, forced to the preemptor's primitive —
// §V-A's minimal-paging strategy).
func NewHFSP(eng *sim.Engine, jt *mapreduce.JobTracker, preemptor *core.Preemptor,
	adv advisor.Advisor, cfg HFSPConfig) (*HFSP, error) {
	h, err := newHFSP(eng, jt, preemptor, adv, cfg)
	if err != nil {
		return nil, err
	}
	eng.Schedule(cfg.CheckInterval, h.checkFn)
	return h, nil
}

// newHFSP creates the scheduler without starting its check loop.
func newHFSP(eng *sim.Engine, jt *mapreduce.JobTracker, preemptor *core.Preemptor,
	adv advisor.Advisor, cfg HFSPConfig) (*HFSP, error) {
	if cfg.CheckInterval <= 0 {
		return nil, fmt.Errorf("scheduler: hfsp needs positive CheckInterval")
	}
	adv, err := schedulerAdvisor(adv, advisor.SmallestMemory, preemptor)
	if err != nil {
		return nil, err
	}
	h := &HFSP{
		eng:       eng,
		jt:        jt,
		cfg:       cfg,
		preemptor: preemptor,
		adv:       adv,
		suspended: make(map[mapreduce.TaskID]*hfspJob),
	}
	h.checkFn = h.check
	return h, nil
}

// Preemptions reports issued preemptions.
func (h *HFSP) Preemptions() int { return h.preemptions }

// Resumes reports issued resumes.
func (h *HFSP) Resumes() int { return h.resumes }

// JobSubmitted implements mapreduce.Scheduler.
func (h *HFSP) JobSubmitted(job *mapreduce.Job) {
	hj := &hfspJob{job: job, seq: h.submitted}
	h.submitted++
	for i, n := 0, job.NumTasks(); i < n; i++ {
		if t := job.TaskAt(i); t.ID().Type == mapreduce.MapTask {
			hj.total += t.Block().Size
		}
	}
	h.jobs = append(h.jobs, hj)
}

// JobCompleted implements mapreduce.Scheduler.
func (h *HFSP) JobCompleted(*mapreduce.Job) {}

// TaskProgressed implements mapreduce.Scheduler.
func (h *HFSP) TaskProgressed(*mapreduce.Task, float64) {}

// live drops the jobs that finished since the last decision, together
// with their bookkeeping, computes each remaining job's size key and
// returns the live jobs in submission order.
func (h *HFSP) live() []*hfspJob {
	kept := h.jobs[:0]
	for _, hj := range h.jobs {
		if s := hj.job.State(); s != mapreduce.JobPending && s != mapreduce.JobRunning {
			h.forget(hj)
			continue
		}
		hj.key = hj.remainingSize()
		kept = append(kept, hj)
	}
	clear(h.jobs[len(kept):])
	h.jobs = kept
	return kept
}

// forget deletes a finished job's suspension entries. The map is read
// only for live jobs, so this changes no decision.
func (h *HFSP) forget(hj *hfspJob) {
	if len(h.suspended) == 0 {
		return
	}
	for i, n := 0, hj.job.NumTasks(); i < n; i++ {
		delete(h.suspended, hj.job.TaskAt(i).ID())
	}
}

// rank fills h.order with the live jobs, smallest first, and records
// each job's position.
func (h *HFSP) rank() {
	h.order = append(h.order[:0], h.live()...)
	slices.SortFunc(h.order, bySize)
	for i, hj := range h.order {
		hj.rank = i
	}
}

// hasPending reports whether the job has a task waiting for a slot.
func hasPending(job *mapreduce.Job) bool {
	for i, n := 0, job.NumTasks(); i < n; i++ {
		if job.TaskAt(i).State() == mapreduce.TaskPending {
			return true
		}
	}
	return false
}

// Assign implements mapreduce.Scheduler: slots go to the smallest job
// first; its suspended tasks on this tracker resume before new launches.
func (h *HFSP) Assign(tt mapreduce.TaskTrackerInfo) []mapreduce.Assignment {
	free := tt.FreeMapSlots
	if free <= 0 {
		return nil
	}
	h.rank()
	if tid, ok := h.resumable(tt); ok {
		if err := h.jt.ResumeTask(tid); err == nil {
			h.resumes++
			free--
			delete(h.suspended, tid)
		}
	}
	out := h.out[:0]
	for _, hj := range h.order {
		if free <= 0 {
			break
		}
		job := hj.job
		for i, n := 0, job.NumTasks(); i < n && free > 0; i++ {
			t := job.TaskAt(i)
			if t.State() != mapreduce.TaskPending {
				continue
			}
			if t.ID().Type == mapreduce.ReduceTask && !mapsDone(job) {
				continue
			}
			out = append(out, mapreduce.Assignment{Task: t.ID()})
			free--
		}
	}
	h.out = out
	return out
}

// resumable picks the task to resume on tt, given h.order: the
// suspended task of the smallest job, first in tt's list among equals,
// unless a smaller job has pending tasks that should get the slot.
func (h *HFSP) resumable(tt mapreduce.TaskTrackerInfo) (mapreduce.TaskID, bool) {
	var best *hfspJob
	var tid mapreduce.TaskID
	for _, id := range tt.SuspendedTasks {
		// Every entry belongs to a live job: live forgets the rest.
		if hj, ok := h.suspended[id]; ok && (best == nil || hj.rank < best.rank) {
			best, tid = hj, id
		}
	}
	if best == nil {
		return mapreduce.TaskID{}, false
	}
	for _, hj := range h.order[:best.rank] {
		if hasPending(hj.job) {
			return mapreduce.TaskID{}, false
		}
	}
	return tid, true
}

// check preempts a task of a larger job when a smaller job has been
// starved past the delay, and re-arms itself.
func (h *HFSP) check() {
	defer h.eng.Schedule(h.cfg.CheckInterval, h.checkFn)
	if starved, v := h.pickVictim(); v != advisor.NoVictim {
		h.preempt(starved, v)
	}
}

// pickVictim finds the starved job — the smallest live job with a
// pending task — and, once it has waited PreemptionDelay, the index in
// h.candTasks of the victim the advisor picks among the running tasks
// of larger jobs (advisor.NoVictim when there is none). The advisor's
// pick does not depend on candidate order, so no sort is needed. The
// candidate slices are reused scratch: a decision allocates nothing.
func (h *HFSP) pickVictim() (starved *hfspJob, victim int) {
	jobs := h.live()
	if len(jobs) < 2 {
		return nil, advisor.NoVictim
	}
	for _, hj := range jobs {
		if (starved == nil || bySize(hj, starved) < 0) && hasPending(hj.job) {
			starved = hj
		}
	}
	if starved == nil {
		return nil, advisor.NoVictim
	}
	now := h.eng.Now()
	if !starved.seenStarved {
		starved.seenStarved, starved.starvedSince = true, now
		return starved, advisor.NoVictim
	}
	if now-starved.starvedSince < h.cfg.PreemptionDelay {
		return starved, advisor.NoVictim
	}
	h.cands = h.cands[:0]
	h.candTasks = h.candTasks[:0]
	h.candJobs = h.candJobs[:0]
	for _, hj := range jobs {
		if bySize(starved, hj) >= 0 {
			continue
		}
		for i, n := 0, hj.job.NumTasks(); i < n; i++ {
			t := hj.job.TaskAt(i)
			if t.State() != mapreduce.TaskRunning {
				continue
			}
			var resident int64
			if h.cfg.Resident != nil {
				resident = h.cfg.Resident(t.ID())
			}
			h.cands = append(h.cands, advisor.Candidate{
				ID:            t.IDString(),
				Progress:      t.Progress(),
				ResidentBytes: resident,
				StartedAt:     t.FirstLaunchAt(),
			})
			h.candTasks = append(h.candTasks, t)
			h.candJobs = append(h.candJobs, hj)
		}
	}
	return starved, h.adv.Decide(advisor.Request{Candidates: h.cands}).Victim
}

// preempt preempts candidate v on behalf of the starved job.
func (h *HFSP) preempt(starved *hfspJob, v int) {
	vt := h.candTasks[v]
	if _, err := h.preemptor.Preempt(vt.ID()); err != nil {
		return
	}
	h.preemptions++
	starved.seenStarved = false
	if h.preemptor.Primitive() == core.Suspend || h.preemptor.Primitive() == core.Checkpoint {
		h.suspended[vt.ID()] = h.candJobs[v]
	}
}
