package mapreduce

import (
	"testing"

	"hadooppreempt/internal/disk"
	"hadooppreempt/internal/hdfs"
	"hadooppreempt/internal/sim"
)

// newTestDevice returns a default disk for protocol tests.
func newTestDevice(eng *sim.Engine) *disk.Device {
	return disk.New(eng, "sda", disk.DefaultConfig())
}

// protoHarness drives the JobTracker protocol directly, without real
// TaskTrackers, to exercise heartbeat edge cases.
type protoHarness struct {
	t   *testing.T
	eng *sim.Engine
	jt  *JobTracker
	job *Job
}

// stubScheduler assigns every pending task to whoever asks.
type stubScheduler struct{ jt *JobTracker }

func (s *stubScheduler) JobSubmitted(*Job)             {}
func (s *stubScheduler) JobCompleted(*Job)             {}
func (s *stubScheduler) TaskProgressed(*Task, float64) {}
func (s *stubScheduler) Assign(tt TaskTrackerInfo) []Assignment {
	var out []Assignment
	for _, t := range s.jt.PendingTasksInto(nil) {
		out = append(out, Assignment{Task: t.ID()})
	}
	return out
}

func newProtoHarness(t *testing.T) *protoHarness {
	t.Helper()
	eng := sim.New()
	fs, err := hdfs.New(eng, sim.NewRNG(1), hdfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev := newTestDevice(eng)
	if _, err := fs.AddDataNode("n1", "r1", dev, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("/in", 512<<20, ""); err != nil {
		t.Fatal(err)
	}
	jt, err := NewJobTracker(eng, DefaultEngineConfig(), fs)
	if err != nil {
		t.Fatal(err)
	}
	jt.SetScheduler(&stubScheduler{jt: jt})
	job, err := jt.Submit(JobConf{Name: "j", InputPath: "/in", MapParseRate: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	return &protoHarness{t: t, eng: eng, jt: jt, job: job}
}

func (h *protoHarness) task() *Task { return h.job.MapTasks()[0] }

// hb sends a heartbeat from "tt1", a tracker that never registered,
// with the given report fields, and checks the JobTracker's indexes
// against a full scan afterwards.
func (h *protoHarness) hb(status HeartbeatStatus) []Action {
	h.t.Helper()
	status.TaskTracker = "tt1"
	actions := h.jt.Heartbeat(status)
	if err := h.jt.CheckIndexes(); err != nil {
		h.t.Fatal(err)
	}
	return actions
}

func TestProtocolLaunchViaHeartbeat(t *testing.T) {
	h := newProtoHarness(t)
	actions := h.hb(HeartbeatStatus{FreeMapSlots: 1})
	if len(actions) != 1 {
		t.Fatalf("actions = %v, want one launch", actions)
	}
	la := actions[0]
	if la.Kind != ActionLaunch {
		t.Fatalf("action = %v, want a launch", la)
	}
	if la.Attempt.Attempt != 1 {
		t.Fatalf("attempt number = %d, want 1", la.Attempt.Attempt)
	}
	if h.task().State() != TaskRunning {
		t.Fatalf("state = %v, want RUNNING", h.task().State())
	}
}

func TestProtocolNoLaunchWithoutSlots(t *testing.T) {
	h := newProtoHarness(t)
	actions := h.hb(HeartbeatStatus{FreeMapSlots: 0})
	if len(actions) != 0 {
		t.Fatalf("actions = %v, want none", actions)
	}
	if h.task().State() != TaskPending {
		t.Fatalf("state = %v, want PENDING", h.task().State())
	}
}

func TestProtocolSuspendPiggybackedOnce(t *testing.T) {
	h := newProtoHarness(t)
	h.hb(HeartbeatStatus{FreeMapSlots: 1})
	aid := AttemptID{Task: h.task().ID(), Attempt: 1}
	if err := h.jt.SuspendTask(h.task().ID()); err != nil {
		t.Fatal(err)
	}
	// First heartbeat carries the suspend command.
	actions := h.hb(HeartbeatStatus{
		Attempts: []AttemptReport{{Attempt: aid, Progress: 0.4}},
	})
	if len(actions) != 1 {
		t.Fatalf("actions = %v, want one suspend", actions)
	}
	if actions[0].Kind != ActionSuspend {
		t.Fatalf("action = %v, want a suspend", actions[0])
	}
	// Second heartbeat (not yet acknowledging) must NOT repeat it.
	actions = h.hb(HeartbeatStatus{
		Attempts: []AttemptReport{{Attempt: aid, Progress: 0.4}},
	})
	if len(actions) != 0 {
		t.Fatalf("suspend repeated: %v", actions)
	}
	if h.task().State() != TaskMustSuspend {
		t.Fatalf("state = %v, want MUST_SUSPEND", h.task().State())
	}
	// Acknowledgement moves the state.
	h.hb(HeartbeatStatus{
		Attempts: []AttemptReport{{Attempt: aid, Suspended: true, Progress: 0.4}},
	})
	if h.task().State() != TaskSuspended {
		t.Fatalf("state = %v, want SUSPENDED", h.task().State())
	}
}

func TestProtocolStaleAttemptReportsIgnored(t *testing.T) {
	h := newProtoHarness(t)
	h.hb(HeartbeatStatus{FreeMapSlots: 1})
	stale := AttemptID{Task: h.task().ID(), Attempt: 99}
	h.hb(HeartbeatStatus{
		Attempts: []AttemptReport{{Attempt: stale, Progress: 0.9}},
	})
	if h.task().Progress() != 0 {
		t.Fatalf("stale report changed progress to %v", h.task().Progress())
	}
	// Stale completion must not complete the task.
	h.hb(HeartbeatStatus{Completed: []AttemptID{stale}})
	if h.task().State() == TaskSucceeded {
		t.Fatal("stale completion accepted")
	}
}

func TestProtocolProgressNeverRegresses(t *testing.T) {
	h := newProtoHarness(t)
	h.hb(HeartbeatStatus{FreeMapSlots: 1})
	aid := AttemptID{Task: h.task().ID(), Attempt: 1}
	h.hb(HeartbeatStatus{Attempts: []AttemptReport{{Attempt: aid, Progress: 0.6}}})
	h.hb(HeartbeatStatus{Attempts: []AttemptReport{{Attempt: aid, Progress: 0.5}}})
	if h.task().Progress() != 0.6 {
		t.Fatalf("progress = %v, want 0.6 (no regression)", h.task().Progress())
	}
}

func TestProtocolCompletionWinsOverSuspend(t *testing.T) {
	h := newProtoHarness(t)
	h.hb(HeartbeatStatus{FreeMapSlots: 1})
	aid := AttemptID{Task: h.task().ID(), Attempt: 1}
	h.jt.SuspendTask(h.task().ID())
	// The task completed before the suspend was delivered (§III-B race).
	h.hb(HeartbeatStatus{Completed: []AttemptID{aid}})
	if h.task().State() != TaskSucceeded {
		t.Fatalf("state = %v, want SUCCEEDED", h.task().State())
	}
	if h.job.State() != JobSucceeded {
		t.Fatalf("job state = %v, want SUCCEEDED", h.job.State())
	}
}

func TestProtocolResumeConsumesSlotBudget(t *testing.T) {
	h := newProtoHarness(t)
	h.hb(HeartbeatStatus{FreeMapSlots: 2})
	aid := AttemptID{Task: h.task().ID(), Attempt: 1}
	h.jt.SuspendTask(h.task().ID())
	h.hb(HeartbeatStatus{Attempts: []AttemptReport{{Attempt: aid, Progress: 0.4}}})
	h.hb(HeartbeatStatus{Attempts: []AttemptReport{{Attempt: aid, Suspended: true, Progress: 0.4}}})
	h.jt.ResumeTask(h.task().ID())
	// Submit a second job so there is pending work competing with the
	// resume for the single free slot.
	if _, err := h.jt.Submit(JobConf{Name: "k", InputPath: "/in", MapParseRate: 1e6}); err != nil {
		t.Fatal(err)
	}
	actions := h.hb(HeartbeatStatus{
		FreeMapSlots: 1,
		Attempts:     []AttemptReport{{Attempt: aid, Suspended: true, Progress: 0.4}},
	})
	resumes, launches := 0, 0
	for _, a := range actions {
		switch a.Kind {
		case ActionResume:
			resumes++
		case ActionLaunch:
			launches++
		}
	}
	if resumes != 1 {
		t.Fatalf("resumes = %d, want 1", resumes)
	}
	if launches != 0 {
		t.Fatalf("launches = %d, want 0 (the resume took the slot)", launches)
	}
}

func TestProtocolFailureRequeuesUntilLimit(t *testing.T) {
	h := newProtoHarness(t)
	max := h.jt.Config().MaxTaskAttempts
	for i := 1; i <= max; i++ {
		actions := h.hb(HeartbeatStatus{FreeMapSlots: 1})
		if len(actions) != 1 {
			t.Fatalf("round %d: actions = %v", i, actions)
		}
		aid := AttemptID{Task: h.task().ID(), Attempt: i}
		h.hb(HeartbeatStatus{Failed: []AttemptID{aid}})
	}
	if h.task().State() != TaskFailed {
		t.Fatalf("state after %d failures = %v, want FAILED", max, h.task().State())
	}
	if h.job.State() != JobFailed {
		t.Fatalf("job state = %v, want FAILED", h.job.State())
	}
}

func TestProtocolKillSuspendedTask(t *testing.T) {
	h := newProtoHarness(t)
	h.hb(HeartbeatStatus{FreeMapSlots: 1})
	aid := AttemptID{Task: h.task().ID(), Attempt: 1}
	h.jt.SuspendTask(h.task().ID())
	h.hb(HeartbeatStatus{Attempts: []AttemptReport{{Attempt: aid, Progress: 0.4}}})
	h.hb(HeartbeatStatus{Attempts: []AttemptReport{{Attempt: aid, Suspended: true, Progress: 0.4}}})
	if err := h.jt.KillTaskAttempt(h.task().ID(), true); err != nil {
		t.Fatalf("killing a suspended task should work: %v", err)
	}
	actions := h.hb(HeartbeatStatus{})
	foundKill := false
	for _, a := range actions {
		if a.Kind == ActionKill {
			foundKill = true
		}
	}
	if !foundKill {
		t.Fatalf("no kill action in %v", actions)
	}
	if h.task().State() != TaskPending {
		t.Fatalf("state = %v, want PENDING (requeued)", h.task().State())
	}
}

func TestJobProgressAggregates(t *testing.T) {
	h := newProtoHarness(t)
	h.hb(HeartbeatStatus{FreeMapSlots: 1})
	aid := AttemptID{Task: h.task().ID(), Attempt: 1}
	h.hb(HeartbeatStatus{Attempts: []AttemptReport{{Attempt: aid, Progress: 0.5}}})
	if got := h.job.Progress(); got != 0.5 {
		t.Fatalf("job progress = %v, want 0.5", got)
	}
}

func TestActionStrings(t *testing.T) {
	aid := AttemptID{Task: TaskID{Job: "j", Type: MapTask, Index: 0}, Attempt: 1}
	for _, k := range []ActionKind{ActionLaunch, ActionSuspend, ActionResume, ActionKill} {
		a := Action{Kind: k, Attempt: aid}
		if a.String() == "" {
			t.Fatalf("kind %d has empty String()", k)
		}
	}
}
