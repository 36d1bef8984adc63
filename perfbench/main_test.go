package main

import (
	"io"
	"path/filepath"
	"testing"
)

// runOnce runs a workload at seed 1 for a moment against the tree that
// holds this directory.
func runOnce(t *testing.T, workload string, traced, corrupt bool) *result {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload(workload)
	b := &bench{
		root: root, seed: 1, seconds: 0.01, traced: traced, nproc: 2,
		scratch: t.TempDir(), out: io.Discard, corrupt: corrupt,
	}
	res, err := benchmark(b, w, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCleanRunIsCorrect(t *testing.T) {
	res := runOnce(t, "paper-grid", false, false)
	if !res.Correct || res.Failed != 0 || res.Attempted < 1080 {
		t.Fatalf("clean run: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
}

// One flipped byte in one output must fail every op of the run, so
// failed_op_frac reads 1.
func TestCorruptByteFailsEveryOp(t *testing.T) {
	res := runOnce(t, "paper-grid", false, true)
	if res.Correct || res.Failed != res.Attempted {
		t.Fatalf("corrupted run: correct=%v failed=%d attempted=%d, want every op failed",
			res.Correct, res.Failed, res.Attempted)
	}
}

// Every seed maps onto an input seed with stored digests, so no run is
// left with only its own first pass to compare against, and an output
// without a stored digest fails.
func TestEverySeedIsChecked(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	parts := map[string]int{"grid": 2, "fifo": 3, "hfsp": 8}
	for _, seed := range []uint64{0, 1, 31, 33, 1<<40 + 7} {
		for _, w := range workloads {
			c, err := newChecker(&bench{root: root, seed: seed}, w.name)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(c.want), parts[digestFamily(w.name)]; got != want {
				t.Errorf("%s seed %d: %d stored digests, want %d", w.name, seed, got, want)
			}
			if grid := digestFamily(w.name) == "grid"; grid && (seed%digestSeeds == 1) != (len(c.golden) > 0) {
				t.Errorf("%s seed %d: %d goldens", w.name, seed, len(c.golden))
			}
			if err := c.part(part{"unrecorded", []byte("x")}); err == nil {
				t.Errorf("%s seed %d: an output without a stored digest passed", w.name, seed)
			}
		}
	}
}

// The traced dist-sweep run reaches the tracer from the coordinator's
// handlers and both workers at once; run it under -race.
func TestTracedDistSweep(t *testing.T) {
	res := runOnce(t, "dist-sweep", true, false)
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced run: correct=%v failed=%d", res.Correct, res.Failed)
	}
	for _, name := range []string{"coord.result_p50_ms", "coord.checkpoint_writes", "cache.hits", "sweep.cell_p50_us"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestParseTracesChargesInnermostInternalFrame(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.memmove
             hadooppreempt/internal/memory.(*extList).insert
             hadooppreempt/internal/sim.(*Engine).StepUntil
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   syscall.Syscall
             net/http.(*conn).serve
-----------+-------------------------------------------------------
`)
	got, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"memory": 0.6, "gc": 0.2, "other": 0.2}
	for k, v := range want {
		if got[k] < v-1e-9 || got[k] > v+1e-9 {
			t.Errorf("share[%s] = %v, want %v (all %v)", k, got[k], v, got)
		}
	}
}
