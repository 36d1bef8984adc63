//go:build unix

package realexec

import (
	"os"
	"testing"
	"time"
)

// TestMain routes worker invocations of the test binary to WorkerMain,
// the standard re-exec pattern.
func TestMain(m *testing.M) {
	if IsWorkerInvocation() {
		WorkerMain()
	}
	os.Exit(m.Run())
}

// spawn starts a quick worker or skips if the sandbox forbids fork/exec.
func spawn(t *testing.T, spec Spec) *Worker {
	t.Helper()
	w, err := SpawnSelf(spec)
	if err != nil {
		t.Skipf("cannot spawn real processes here: %v", err)
	}
	t.Cleanup(func() { w.Kill(); w.Wait(5 * time.Second) })
	return w
}

func TestWorkerRunsToCompletion(t *testing.T) {
	w := spawn(t, Spec{Name: "quick", Steps: 5, UnitsPerStep: 1_000_000})
	if !w.Wait(30 * time.Second) {
		t.Fatal("worker did not finish")
	}
	if w.State() != StateDone {
		t.Fatalf("state = %v, want done (err: %v)", w.State(), w.Err())
	}
	if w.Progress() != 1 {
		t.Fatalf("progress = %v, want 1", w.Progress())
	}
}

func TestSuspendStopsProgress(t *testing.T) {
	// A deliberately long worker so suspension lands mid-flight.
	w := spawn(t, Spec{Name: "long", Steps: 200, UnitsPerStep: 5_000_000})
	// Wait for some progress.
	deadline := time.Now().Add(20 * time.Second)
	for w.Progress() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if w.Progress() == 0 {
		t.Skip("worker made no progress in time (loaded machine)")
	}
	if err := w.Suspend(); err != nil {
		t.Fatal(err)
	}
	if !waitStopped(w.PID(), 10*time.Second) {
		t.Skip("worker was not stopped in time (loaded machine)")
	}
	// Allow in-flight pipe data to drain, then progress must freeze.
	time.Sleep(200 * time.Millisecond)
	p1 := w.Progress()
	time.Sleep(500 * time.Millisecond)
	p2 := w.Progress()
	if p2 != p1 {
		t.Fatalf("progress advanced while stopped: %v -> %v", p1, p2)
	}
	if w.State() != StateSuspended {
		t.Fatalf("state = %v, want suspended", w.State())
	}
	if err := w.Resume(); err != nil {
		t.Fatal(err)
	}
	// After resume it must advance again.
	deadline = time.Now().Add(30 * time.Second)
	for w.Progress() <= p2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if w.Progress() <= p2 {
		t.Fatal("no progress after resume")
	}
}

func TestSuspendedWorkerCanBeKilled(t *testing.T) {
	w := spawn(t, Spec{Name: "victim", Steps: 1000, UnitsPerStep: 5_000_000})
	time.Sleep(100 * time.Millisecond)
	if err := w.Suspend(); err != nil {
		t.Fatal(err)
	}
	if err := w.Kill(); err != nil {
		t.Fatal(err)
	}
	if !w.Wait(10 * time.Second) {
		t.Fatal("killed worker did not exit")
	}
	if w.State() != StateKilled {
		t.Fatalf("state = %v, want killed", w.State())
	}
}

func TestInvalidTransitions(t *testing.T) {
	w := spawn(t, Spec{Name: "x", Steps: 1000, UnitsPerStep: 5_000_000})
	if err := w.Resume(); err == nil {
		t.Fatal("resume of a running worker should fail")
	}
	if err := w.Suspend(); err != nil {
		t.Fatal(err)
	}
	if err := w.Suspend(); err == nil {
		t.Fatal("double suspend should fail")
	}
}

func TestStateStrings(t *testing.T) {
	if StateRunning.String() != "running" || StateSuspended.String() != "suspended" ||
		StateDone.String() != "done" || StateKilled.String() != "killed" {
		t.Fatal("state strings wrong")
	}
}
