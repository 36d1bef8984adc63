package mapreduce

import (
	"testing"
	"time"
)

// fifoTestScheduler assigns pending tasks in submission order; it performs
// no preemption on its own.
type fifoTestScheduler struct {
	jt *JobTracker
}

func (s *fifoTestScheduler) JobSubmitted(*Job)             {}
func (s *fifoTestScheduler) JobCompleted(*Job)             {}
func (s *fifoTestScheduler) TaskProgressed(*Task, float64) {}

func (s *fifoTestScheduler) Assign(tt TaskTrackerInfo) []Assignment {
	var out []Assignment
	free := tt.FreeMapSlots
	for _, t := range s.jt.PendingTasksInto(nil) {
		if free <= 0 {
			break
		}
		// Reduce tasks wait for all maps of their job.
		if t.ID().Type == ReduceTask && !mapsDone(t.Job()) {
			continue
		}
		out = append(out, Assignment{Task: t.ID()})
		free--
	}
	return out
}

func mapsDone(j *Job) bool {
	for _, t := range j.MapTasks() {
		if t.State() != TaskSucceeded {
			return false
		}
	}
	return true
}

// lightJobConf returns a small, fast job for tests: 64 MB input at
// 32 MB/s parse rate (~2 s of map compute).
func lightJobConf(name, input string) JobConf {
	return JobConf{
		Name:         name,
		InputPath:    input,
		MapParseRate: 32e6,
		JVMBaseBytes: 64 << 20,
	}
}

// testCluster builds a single-node cluster with fast parameters and small
// memory pages to keep tests quick.
func newCluster(t *testing.T, nodes, slots int) *Cluster {
	t.Helper()
	cfg := DefaultClusterConfig()
	cfg.Nodes = nodes
	cfg.Node.MapSlots = slots
	cfg.Node.Memory.PageSize = 1 << 20
	cfg.Engine.HeartbeatInterval = time.Second
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.JobTracker().SetScheduler(&fifoTestScheduler{jt: c.JobTracker()})
	return c
}

func TestSingleJobRunsToCompletion(t *testing.T) {
	c := newCluster(t, 1, 2)
	if err := c.CreateInput("/in", 64<<20); err != nil {
		t.Fatal(err)
	}
	job, err := c.JobTracker().Submit(lightJobConf("wc", "/in"))
	if err != nil {
		t.Fatal(err)
	}
	if !c.RunUntilJobsDone(10 * time.Minute) {
		t.Fatalf("job did not finish; state=%v", job.State())
	}
	if job.State() != JobSucceeded {
		t.Fatalf("job state = %v, want SUCCEEDED", job.State())
	}
	for _, task := range job.Tasks() {
		if task.State() != TaskSucceeded {
			t.Fatalf("task %s state = %v", task.ID(), task.State())
		}
	}
	// 64 MB input: JVM start 1.2s + alloc + read+parse ~2s + commit.
	dur := job.CompletedAt() - job.SubmittedAt()
	if dur < 2*time.Second || dur > 30*time.Second {
		t.Fatalf("job took %v, want a few seconds", dur)
	}
}

func TestMultiBlockJobCreatesOneMapPerBlock(t *testing.T) {
	c := newCluster(t, 2, 2)
	// 5 blocks of 512 MB HDFS default block size => use small file with
	// small blocks instead.
	cfg := c.FileSystem().Config()
	if err := c.CreateInput("/in", 3*cfg.BlockSize); err != nil {
		t.Fatal(err)
	}
	job, err := c.JobTracker().Submit(lightJobConf("multi", "/in"))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(job.MapTasks()); got != 3 {
		t.Fatalf("map tasks = %d, want 3", got)
	}
}

func TestSubmitValidation(t *testing.T) {
	c := newCluster(t, 1, 1)
	if _, err := c.JobTracker().Submit(JobConf{Name: "x", InputPath: "/missing", MapParseRate: 1e6}); err == nil {
		t.Fatal("submit with missing input should fail")
	}
	if _, err := c.JobTracker().Submit(JobConf{Name: "", InputPath: "/in", MapParseRate: 1e6}); err == nil {
		t.Fatal("submit without name should fail")
	}
}

func TestJobWithReduces(t *testing.T) {
	c := newCluster(t, 1, 2)
	if err := c.CreateInput("/in", 64<<20); err != nil {
		t.Fatal(err)
	}
	conf := lightJobConf("sortjob", "/in")
	conf.NumReduces = 1
	conf.MapOutputRatio = 0.5
	conf.ReduceRate = 32e6
	conf.ShuffleSortRate = 32e6
	job, err := c.JobTracker().Submit(conf)
	if err != nil {
		t.Fatal(err)
	}
	if !c.RunUntilJobsDone(10 * time.Minute) {
		t.Fatalf("job did not finish; state=%v progress=%v", job.State(), job.Progress())
	}
	if job.State() != JobSucceeded {
		t.Fatalf("job state = %v", job.State())
	}
}

func TestSuspendResumeProtocol(t *testing.T) {
	c := newCluster(t, 1, 1)
	if err := c.CreateInput("/in", 256<<20); err != nil { // ~8s of parsing
		t.Fatal(err)
	}
	job, _ := c.JobTracker().Submit(lightJobConf("tl", "/in"))
	task := job.MapTasks()[0]
	jt := c.JobTracker()

	var states []TaskState
	jt.AddListener(&stateRecorder{states: &states})

	// Let it run a bit, then suspend.
	c.RunUntil(4 * time.Second)
	if task.State() != TaskRunning {
		t.Fatalf("state at 4s = %v, want RUNNING", task.State())
	}
	if err := jt.SuspendTask(task.ID()); err != nil {
		t.Fatal(err)
	}
	if task.State() != TaskMustSuspend {
		t.Fatalf("state after SuspendTask = %v, want MUST_SUSPEND", task.State())
	}
	// Within two heartbeat intervals the ack must arrive.
	c.RunUntil(7 * time.Second)
	if task.State() != TaskSuspended {
		t.Fatalf("state at 7s = %v, want SUSPENDED", task.State())
	}
	progressAtSuspend := task.Progress()
	if progressAtSuspend <= 0 || progressAtSuspend >= 1 {
		t.Fatalf("progress at suspend = %v, want in (0,1)", progressAtSuspend)
	}
	// Stay suspended: no progress.
	c.RunUntil(12 * time.Second)
	if task.Progress() > progressAtSuspend+0.05 {
		t.Fatalf("progress grew while suspended: %v -> %v", progressAtSuspend, task.Progress())
	}
	// Resume and finish.
	if err := jt.ResumeTask(task.ID()); err != nil {
		t.Fatal(err)
	}
	if task.State() != TaskMustResume {
		t.Fatalf("state after ResumeTask = %v, want MUST_RESUME", task.State())
	}
	if !c.RunUntilJobsDone(10 * time.Minute) {
		t.Fatalf("job did not finish after resume; state=%v", task.State())
	}
	if task.Suspensions() != 1 {
		t.Fatalf("suspensions = %d, want 1", task.Suspensions())
	}
	// The state sequence must include the paper's protocol states in
	// order.
	wantSeq := []TaskState{TaskRunning, TaskMustSuspend, TaskSuspended, TaskMustResume, TaskRunning, TaskSucceeded}
	if !containsSubsequence(states, wantSeq) {
		t.Fatalf("state sequence %v missing %v", states, wantSeq)
	}
}

type stateRecorder struct {
	NopListener
	states *[]TaskState
}

func (r *stateRecorder) TaskStateChanged(task *Task, from, to TaskState, at time.Duration) {
	*r.states = append(*r.states, to)
}

func containsSubsequence(have, want []TaskState) bool {
	i := 0
	for _, s := range have {
		if i < len(want) && s == want[i] {
			i++
		}
	}
	return i == len(want)
}

func TestSuspendInvalidStates(t *testing.T) {
	c := newCluster(t, 1, 1)
	c.CreateInput("/in", 64<<20)
	job, _ := c.JobTracker().Submit(lightJobConf("j", "/in"))
	task := job.MapTasks()[0]
	jt := c.JobTracker()
	// Pending task cannot be suspended.
	if err := jt.SuspendTask(task.ID()); err == nil {
		t.Fatal("suspending a pending task should fail")
	}
	// Unknown task.
	if err := jt.SuspendTask(TaskID{Job: "nope", Type: MapTask}); err == nil {
		t.Fatal("suspending unknown task should fail")
	}
	// Running task cannot be resumed.
	c.RunUntil(4 * time.Second)
	if err := jt.ResumeTask(task.ID()); err == nil {
		t.Fatal("resuming a running task should fail")
	}
}

func TestKillRequeuesAndRestartsFromScratch(t *testing.T) {
	c := newCluster(t, 1, 1)
	c.CreateInput("/in", 256<<20)
	job, _ := c.JobTracker().Submit(lightJobConf("victim", "/in"))
	task := job.MapTasks()[0]
	jt := c.JobTracker()

	c.RunUntil(5 * time.Second)
	progressBefore := task.Progress()
	if progressBefore <= 0 {
		t.Fatal("task should have progressed before the kill")
	}
	if err := jt.KillTaskAttempt(task.ID(), true); err != nil {
		t.Fatal(err)
	}
	if !c.RunUntilJobsDone(10 * time.Minute) {
		t.Fatalf("job did not finish after kill; state=%v", task.State())
	}
	if task.Attempts() != 2 {
		t.Fatalf("attempts = %d, want 2 (restart from scratch)", task.Attempts())
	}
	if task.WastedWork() == 0 {
		t.Fatal("kill should record wasted work")
	}
	if job.State() != JobSucceeded {
		t.Fatalf("job state = %v", job.State())
	}
}

func TestKillRunsCleanupSpan(t *testing.T) {
	c := newCluster(t, 1, 1)
	c.CreateInput("/in", 256<<20)
	job, _ := c.JobTracker().Submit(lightJobConf("victim", "/in"))
	task := job.MapTasks()[0]
	jt := c.JobTracker()
	var cleanups []time.Duration
	jt.AddListener(&cleanupRecorder{spans: &cleanups})
	c.RunUntil(5 * time.Second)
	jt.KillTaskAttempt(task.ID(), true)
	c.RunUntilJobsDone(10 * time.Minute)
	if len(cleanups) != 1 {
		t.Fatalf("cleanup spans = %d, want 1", len(cleanups))
	}
	if cleanups[0] < jt.Config().CleanupCost {
		t.Fatalf("cleanup span %v shorter than CleanupCost %v", cleanups[0], jt.Config().CleanupCost)
	}
}

type cleanupRecorder struct {
	NopListener
	spans *[]time.Duration
}

func (r *cleanupRecorder) CleanupSpan(task TaskID, tracker string, start, end time.Duration) {
	*r.spans = append(*r.spans, end-start)
}

func TestTerminalKill(t *testing.T) {
	c := newCluster(t, 1, 1)
	c.CreateInput("/in", 256<<20)
	job, _ := c.JobTracker().Submit(lightJobConf("doomed", "/in"))
	task := job.MapTasks()[0]
	c.RunUntil(5 * time.Second)
	if err := c.JobTracker().KillTaskAttempt(task.ID(), false); err != nil {
		t.Fatal(err)
	}
	c.RunUntil(30 * time.Second)
	if task.State() != TaskKilled {
		t.Fatalf("state = %v, want KILLED (terminal)", task.State())
	}
	if task.Attempts() != 1 {
		t.Fatalf("attempts = %d, want 1 (no requeue)", task.Attempts())
	}
}

func TestTwoSlotsRunTwoJobsConcurrently(t *testing.T) {
	c := newCluster(t, 1, 2)
	c.CreateInput("/a", 128<<20)
	c.CreateInput("/b", 128<<20)
	ja, _ := c.JobTracker().Submit(lightJobConf("a", "/a"))
	jb, _ := c.JobTracker().Submit(lightJobConf("b", "/b"))
	if !c.RunUntilJobsDone(10 * time.Minute) {
		t.Fatal("jobs did not finish")
	}
	// Both ran concurrently: completion times within a few seconds of
	// each other (disk contention allowed).
	da := ja.CompletedAt()
	db := jb.CompletedAt()
	diff := da - db
	if diff < 0 {
		diff = -diff
	}
	if diff > 10*time.Second {
		t.Fatalf("completions far apart: %v vs %v", da, db)
	}
}

func TestOneSlotSerializesJobs(t *testing.T) {
	c := newCluster(t, 1, 1)
	c.CreateInput("/a", 128<<20)
	c.CreateInput("/b", 128<<20)
	ja, _ := c.JobTracker().Submit(lightJobConf("a", "/a"))
	jb, _ := c.JobTracker().Submit(lightJobConf("b", "/b"))
	if !c.RunUntilJobsDone(10 * time.Minute) {
		t.Fatal("jobs did not finish")
	}
	if jb.CompletedAt() <= ja.CompletedAt() {
		t.Fatalf("FIFO violated: b at %v, a at %v", jb.CompletedAt(), ja.CompletedAt())
	}
}

func TestProgressEventsFlow(t *testing.T) {
	c := newCluster(t, 1, 1)
	c.CreateInput("/in", 256<<20)
	c.JobTracker().Submit(lightJobConf("j", "/in"))
	var updates []float64
	c.JobTracker().AddListener(&progressRecorder{updates: &updates})
	c.RunUntilJobsDone(10 * time.Minute)
	if len(updates) < 3 {
		t.Fatalf("progress updates = %d, want several", len(updates))
	}
	for i := 1; i < len(updates); i++ {
		if updates[i] < updates[i-1] {
			t.Fatalf("progress went backwards: %v", updates)
		}
	}
}

type progressRecorder struct {
	NopListener
	updates *[]float64
}

func (r *progressRecorder) TaskProgressed(task *Task, p float64, at time.Duration) {
	*r.updates = append(*r.updates, p)
}

func TestMultiNodeClusterSpreadsTasks(t *testing.T) {
	c := newCluster(t, 4, 1)
	cfg := c.FileSystem().Config()
	if err := c.CreateInput("/in", 4*cfg.BlockSize); err != nil {
		t.Fatal(err)
	}
	job, _ := c.JobTracker().Submit(lightJobConf("spread", "/in"))
	if !c.RunUntilJobsDone(60 * time.Minute) {
		t.Fatal("job did not finish")
	}
	trackers := make(map[string]bool)
	for _, task := range job.MapTasks() {
		trackers[task.Tracker()] = true
	}
	if len(trackers) < 2 {
		t.Fatalf("tasks used %d trackers, want spread across several", len(trackers))
	}
}

func TestHeartbeatsKeepFlowing(t *testing.T) {
	c := newCluster(t, 1, 1)
	c.RunUntil(30 * time.Second)
	hb := c.Node(0).Tracker.Heartbeats()
	// One per second for 30 s, +- startup phase.
	if hb < 25 || hb > 35 {
		t.Fatalf("heartbeats = %d, want ~30", hb)
	}
}

func TestClusterValidation(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.Nodes = 0
	if _, err := NewCluster(cfg); err == nil {
		t.Fatal("0 nodes should fail")
	}
}

func TestTaskIDStrings(t *testing.T) {
	id := TaskID{Job: "job_x_0001", Type: MapTask, Index: 3}
	if id.String() != "job_x_0001_m_000003" {
		t.Fatalf("TaskID string = %q", id.String())
	}
	aid := AttemptID{Task: id, Attempt: 2}
	if aid.String() != "attempt_job_x_0001_m_000003_2" {
		t.Fatalf("AttemptID string = %q", aid.String())
	}
}

func TestStateStringsAndPredicates(t *testing.T) {
	if TaskMustSuspend.String() != "MUST_SUSPEND" || TaskSuspended.String() != "SUSPENDED" ||
		TaskMustResume.String() != "MUST_RESUME" {
		t.Fatal("paper state names wrong")
	}
	if !TaskSucceeded.Terminal() || TaskRunning.Terminal() {
		t.Fatal("Terminal predicate wrong")
	}
	for _, s := range []TaskState{TaskRunning, TaskMustSuspend, TaskSuspended, TaskMustResume} {
		if !s.Live() {
			t.Fatalf("%v should be live", s)
		}
	}
	if TaskPending.Live() || TaskSucceeded.Live() {
		t.Fatal("Live predicate wrong")
	}
}

func TestCompletionRaceBeatsSuspend(t *testing.T) {
	// Suspend a task that is about to finish: the completion must win and
	// the task end SUCCEEDED, as §III-B describes.
	c := newCluster(t, 1, 1)
	c.CreateInput("/in", 64<<20)
	job, _ := c.JobTracker().Submit(lightJobConf("fast", "/in"))
	task := job.MapTasks()[0]
	// Suspend very late in the task's life; exact timing depends on when
	// progress reports land, so poll until progress is high.
	for c.Engine().Now() < 10*time.Minute {
		c.Engine().Step()
		if task.State() == TaskRunning && task.Progress() > 0.9 {
			break
		}
	}
	if task.Progress() <= 0.9 {
		t.Skip("never observed >90% progress while running")
	}
	c.JobTracker().SuspendTask(task.ID())
	c.RunUntilJobsDone(10 * time.Minute)
	if task.State() != TaskSucceeded {
		t.Fatalf("state = %v, want SUCCEEDED (completion wins the race)", task.State())
	}
}
