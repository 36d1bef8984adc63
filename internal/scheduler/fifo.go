package scheduler

import (
	"hadooppreempt/internal/mapreduce"
)

// FIFO is Hadoop's default scheduler: tasks are assigned in job submission
// order with no preemption. It is the "wait" world: a high-priority job
// simply queues behind running work.
type FIFO struct {
	jt *mapreduce.JobTracker
	// out is reused across Assign calls; the JobTracker consumes the
	// assignments before the next call.
	out []mapreduce.Assignment
}

var _ mapreduce.Scheduler = (*FIFO)(nil)

// NewFIFO creates a FIFO scheduler.
func NewFIFO(jt *mapreduce.JobTracker) *FIFO {
	return &FIFO{jt: jt}
}

// JobSubmitted implements mapreduce.Scheduler.
func (f *FIFO) JobSubmitted(*mapreduce.Job) {}

// JobCompleted implements mapreduce.Scheduler.
func (f *FIFO) JobCompleted(*mapreduce.Job) {}

// TaskProgressed implements mapreduce.Scheduler.
func (f *FIFO) TaskProgressed(*mapreduce.Task, float64) {}

// Assign implements mapreduce.Scheduler. It walks the pending tasks in
// submission order and stops once the free slots are filled.
func (f *FIFO) Assign(tt mapreduce.TaskTrackerInfo) []mapreduce.Assignment {
	free := tt.FreeMapSlots
	if free <= 0 {
		return nil
	}
	out := f.out[:0]
	for t := range f.jt.EachPending {
		if t.ID().Type == mapreduce.ReduceTask && !mapsDone(t.Job()) {
			continue
		}
		out = append(out, mapreduce.Assignment{Task: t.ID()})
		if free--; free == 0 {
			break
		}
	}
	f.out = out
	return out
}
