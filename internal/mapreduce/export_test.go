package mapreduce

import (
	"fmt"
	"slices"

	"hadooppreempt/internal/ossim"
)

// CheckIndexes compares the JobTracker's incremental indexes with a
// brute-force scan of every task of every job ever submitted — the
// definition the indexes replace. It checks the pending order
// (EachPending), the per-job pending counts, the pending-job list and,
// for every tracker name, the tasksOn list and the suspended count.
func (jt *JobTracker) CheckIndexes() error {
	var pending []*Task
	on := make(map[string][]*Task)
	pendingJobs := 0
	for _, j := range jt.jobList {
		n := 0
		for _, t := range j.tasks {
			if t.state == TaskPending {
				pending = append(pending, t)
				n++
			}
			if t.tracker != "" && (t.state.Live() || t.state == TaskKilled) {
				on[t.tracker] = append(on[t.tracker], t)
			}
		}
		if j.pending != n {
			return fmt.Errorf("job %s: pending count %d, scan finds %d", j.id, j.pending, n)
		}
		if n > 0 {
			pendingJobs++
		}
	}
	if got := jt.PendingTasksInto(nil); !slices.Equal(got, pending) {
		return fmt.Errorf("pending order %v, scan gives %v", taskIDs(got), taskIDs(pending))
	}
	if len(jt.pendingJobs) != pendingJobs {
		return fmt.Errorf("%d jobs with pending tasks, scan finds %d", len(jt.pendingJobs), pendingJobs)
	}
	for name, want := range on {
		slices.SortFunc(want, byTaskID)
		if got := jt.tasksOn(name); !slices.Equal(got, want) {
			return fmt.Errorf("tracker %s: tasksOn %v, scan gives %v", name, taskIDs(got), taskIDs(want))
		}
	}
	for name, v := range jt.trackers {
		if len(v.on) != len(on[name]) {
			return fmt.Errorf("tracker %s: tasksOn %v, scan gives %v", name, taskIDs(v.on), taskIDs(on[name]))
		}
		susp := 0
		for _, t := range v.on {
			if t.state == TaskSuspended || t.state == TaskMustResume {
				susp++
			}
		}
		if v.suspended != susp {
			return fmt.Errorf("tracker %s: suspended count %d, scan finds %d", name, v.suspended, susp)
		}
	}
	return nil
}

func taskIDs(ts []*Task) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.idStr
	}
	return out
}

// CrashAttempt kills the process of the tracker's i-th live attempt
// (modulo the attempt count) from outside the tracker, the way a
// crashing JVM dies, so the next heartbeat reports the attempt failed.
// It reports whether a process was killed.
func (tt *TaskTracker) CrashAttempt(i int) bool {
	if len(tt.attempts) == 0 {
		return false
	}
	att := tt.attempts[i%len(tt.attempts)]
	return att.proc != nil && tt.kernel.Signal(att.proc.PID(), ossim.SIGKILL) == nil
}
