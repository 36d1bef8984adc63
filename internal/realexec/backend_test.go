//go:build unix

package realexec

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"hadooppreempt/internal/sweep"
)

// waitForProgress polls until the worker reports progress above the
// floor or the deadline passes; it reports the last observed value.
func waitForProgress(w *Worker, floor float64, deadline time.Duration) float64 {
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		if p := w.Progress(); p > floor {
			return p
		}
		if w.State() != StateRunning {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	return w.Progress()
}

// waitStopped polls /proc/<pid>/stat until the kernel reports the
// process stopped (state T) and reports whether it did before the
// deadline. Signal delivery is asynchronous: on a loaded host a worker
// sent SIGTSTP may run on for a while, so a fixed sleep cannot promise
// that it has stopped. Without /proc it reports true at once, leaving
// the callers' fixed drain as the only wait.
func waitStopped(pid int, deadline time.Duration) bool {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		return true
	}
	path := fmt.Sprintf("/proc/%d/stat", pid)
	end := time.Now().Add(deadline)
	for {
		data, err := os.ReadFile(path)
		if err != nil {
			return false
		}
		// The state follows the parenthesized command name, which may
		// itself hold parentheses: "pid (comm) S ...".
		if i := bytes.LastIndexByte(data, ')'); i >= 0 && i+2 < len(data) && data[i+2] == 'T' {
			return true
		}
		if time.Now().After(end) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentSuspendFreezesOnlyVictims runs several workers at once,
// stops half of them, and checks that a stopped process makes no
// progress while its running siblings do — the per-PID signal targeting
// the paper's TaskTracker modification relies on. Flake-hardening: the
// test skips (rather than fails) when the sandbox forbids fork/exec or
// the machine is too loaded for the running workers to advance, and the
// freeze check tolerates the in-flight pipe line that may land right
// after SIGTSTP.
func TestConcurrentSuspendFreezesOnlyVictims(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skipf("flake-hardened only on linux (GOOS=%s)", runtime.GOOS)
	}
	const workers = 4
	ws := make([]*Worker, workers)
	for i := range ws {
		ws[i] = spawn(t, Spec{Name: "conc", Steps: 400, UnitsPerStep: 2_000_000})
	}
	for _, w := range ws {
		if waitForProgress(w, 0, 20*time.Second) == 0 {
			t.Skip("workers made no progress in time (loaded machine)")
		}
	}
	// Suspend the even workers concurrently, as a scheduler sweeping a
	// node would.
	var wg sync.WaitGroup
	for i := 0; i < workers; i += 2 {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			if err := w.Suspend(); err != nil {
				t.Errorf("suspend: %v", err)
			}
		}(ws[i])
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 0; i < workers; i += 2 {
		if !waitStopped(ws[i].PID(), 10*time.Second) {
			t.Skipf("worker %d was not stopped in time (loaded machine)", i)
		}
	}
	// Let in-flight pipe data drain before sampling the frozen value.
	time.Sleep(300 * time.Millisecond)
	frozen := []float64{ws[0].Progress(), ws[2].Progress()}
	running := []float64{ws[1].Progress(), ws[3].Progress()}
	time.Sleep(700 * time.Millisecond)
	if p := ws[0].Progress(); p != frozen[0] {
		t.Errorf("suspended worker 0 advanced: %v -> %v", frozen[0], p)
	}
	if p := ws[2].Progress(); p != frozen[1] {
		t.Errorf("suspended worker 2 advanced: %v -> %v", frozen[1], p)
	}
	// The untouched workers must keep moving (skip, not fail, if the
	// machine stalls them — we only assert the contrast when visible).
	moved := ws[1].Progress() > running[0] || ws[3].Progress() > running[1] ||
		ws[1].State() == StateDone || ws[3].State() == StateDone
	if !moved {
		t.Skip("running workers made no progress during the freeze window (loaded machine)")
	}
	// Resume and verify both victims move again.
	for _, i := range []int{0, 2} {
		if err := ws[i].Resume(); err != nil {
			t.Fatalf("resume worker %d: %v", i, err)
		}
	}
	for _, i := range []int{0, 2} {
		before := frozen[i/2]
		if waitForProgress(ws[i], before, 30*time.Second) <= before && ws[i].State() == StateRunning {
			t.Errorf("worker %d made no progress after resume", i)
		}
	}
}

// TestBackendGrid checks the real backend's grid mirrors the two-job
// scenario shape.
func TestBackendGrid(t *testing.T) {
	b, err := NewBackend(SweepConfig{Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != BackendName {
		t.Errorf("Name() = %q, want %q", b.Name(), BackendName)
	}
	g, err := b.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 3*3*2 {
		t.Errorf("grid size = %d, want 18 (prim x r x rep)", g.Size())
	}
	if _, err := NewBackend(SweepConfig{Rs: []float64{150}}); err == nil {
		t.Error("out-of-range preemption point should fail")
	}
}

// TestBackendCellSmoke executes one real suspend cell end to end with a
// tiny workload. Skipped where fork/exec is forbidden.
func TestBackendCellSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process cell in -short mode")
	}
	if _, err := SpawnSelf(Spec{Name: "probe", Steps: 1, UnitsPerStep: 1}); err != nil {
		t.Skipf("cannot spawn real processes here: %v", err)
	}
	// Steps long enough (~10ms each) that the preemption point lands
	// mid-flight rather than after the worker already finished.
	b, err := NewBackend(SweepConfig{Rs: []float64{50}, Steps: 10, UnitsPerStep: 20_000_000})
	if err != nil {
		t.Fatal(err)
	}
	col, err := sweep.RunBackend(b, sweep.Options{Parallel: 1, Seed: 1}, sweep.RepAxis)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Groups) != 3 {
		t.Fatalf("groups = %d, want one per primitive", len(col.Groups))
	}
	for _, g := range col.Groups {
		if g.Metrics["sojourn_th_s"].Mean <= 0 || g.Metrics["makespan_s"].Mean <= 0 {
			t.Errorf("%s: non-positive timings: %+v", g.Key, g.Metrics)
		}
		attempts := g.Metrics["tl_attempts"].Mean
		switch g.Labels["prim"] {
		case "kill":
			if attempts != 2 {
				t.Errorf("kill cell reported %v attempts, want 2", attempts)
			}
		default:
			if attempts != 1 {
				t.Errorf("%s cell reported %v attempts, want 1", g.Labels["prim"], attempts)
			}
		}
		if g.Labels["prim"] == "susp" && g.Metrics["tl_suspensions"].Mean != 1 {
			t.Errorf("susp cell reported %v suspensions, want 1", g.Metrics["tl_suspensions"].Mean)
		}
	}
}
