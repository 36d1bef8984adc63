package scheduler

import (
	"hadooppreempt/internal/advisor"
	"hadooppreempt/internal/core"
	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/sim"
)

// NewHFSPUnarmed builds an HFSP without starting its check loop, so a
// test can run the checks itself through CheckStep.
func NewHFSPUnarmed(eng *sim.Engine, jt *mapreduce.JobTracker, preemptor *core.Preemptor,
	adv advisor.Advisor, cfg HFSPConfig) (*HFSP, error) {
	return newHFSP(eng, jt, preemptor, adv, cfg)
}

// PickVictim runs check's decision without acting on it: it returns
// the starved job and the victim check would preempt (nil when none).
func (h *HFSP) PickVictim() (starved *mapreduce.Job, victim *mapreduce.Task) {
	sj, v := h.pickVictim()
	if sj != nil {
		starved = sj.job
	}
	if v != advisor.NoVictim {
		victim = h.candTasks[v]
	}
	return starved, victim
}

// CheckStep runs one preemption check, as check does without re-arming
// itself, and returns the starved job and the chosen victim (nil when
// there is none).
func (h *HFSP) CheckStep() (starved *mapreduce.Job, victim *mapreduce.Task) {
	sj, v := h.pickVictim()
	if sj != nil {
		starved = sj.job
	}
	if v != advisor.NoVictim {
		victim = h.candTasks[v]
		h.preempt(sj, v)
	}
	return starved, victim
}

// ResumeChoice returns the task Assign(tt) would try to resume, without
// resuming it or assigning anything.
func (h *HFSP) ResumeChoice(tt mapreduce.TaskTrackerInfo) (mapreduce.TaskID, bool) {
	if tt.FreeMapSlots <= 0 {
		return mapreduce.TaskID{}, false
	}
	h.rank()
	return h.resumable(tt)
}

// Bookkeeping reports the sizes of HFSP's job list and suspension map.
func (h *HFSP) Bookkeeping() (jobs, suspended int) {
	return len(h.jobs), len(h.suspended)
}
