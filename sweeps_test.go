package hadooppreempt_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	hp "hadooppreempt"
)

// TestTwoJobSweepEndToEnd drives the paper's two-job scenario grid
// through the streaming-collapse harness and checks the headline
// qualitative claim: the smaller (high-priority) job's sojourn improves
// under suspend compared to kill at every preemption point.
func TestTwoJobSweepEndToEnd(t *testing.T) {
	grid, run := hp.TwoJobSweep(1)
	col, err := hp.RunSweepCollapsed(grid, run, hp.SweepOptions{Parallel: 4, Seed: 1}, "rep")
	if err != nil {
		t.Fatal(err)
	}
	sojourn := make(map[string]map[string]float64) // prim -> r -> mean
	for _, g := range col.Groups {
		prim := g.Labels["prim"]
		if sojourn[prim] == nil {
			sojourn[prim] = make(map[string]float64)
		}
		sojourn[prim][g.Labels["r"]] = g.Metrics["sojourn_th_s"].Mean
	}
	if len(sojourn["susp"]) != 9 || len(sojourn["kill"]) != 9 {
		t.Fatalf("expected 9 preemption points per primitive, got susp=%d kill=%d",
			len(sojourn["susp"]), len(sojourn["kill"]))
	}
	for r, susp := range sojourn["susp"] {
		kill := sojourn["kill"][r]
		if susp >= kill {
			t.Errorf("at r=%s%%: susp sojourn %.1fs should beat kill %.1fs", r, susp, kill)
		}
	}
}

// TestSweepParallelismByteIdentical is the acceptance criterion: the
// same seed produces byte-identical aggregate output regardless of the
// worker pool size.
func TestSweepParallelismByteIdentical(t *testing.T) {
	render := func(parallel int) (string, string) {
		grid, run := hp.TwoJobSweep(1)
		col, err := hp.RunSweepCollapsed(grid, run, hp.SweepOptions{Parallel: parallel, Seed: 42}, "rep")
		if err != nil {
			t.Fatal(err)
		}
		var csv, js bytes.Buffer
		if err := col.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if err := col.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return csv.String(), js.String()
	}
	csv1, js1 := render(1)
	csv8, js8 := render(8)
	if csv1 != csv8 {
		t.Fatal("CSV output differs between -parallel 1 and -parallel 8")
	}
	if js1 != js8 {
		t.Fatal("JSON output differs between -parallel 1 and -parallel 8")
	}
}

// TestSweepShardMergeByteIdentical runs the two-job grid as three
// shards — through the serialized shard-file form — and checks the
// merged result renders byte-identically to the unsharded sweep in
// every format.
func TestSweepShardMergeByteIdentical(t *testing.T) {
	const shards = 3
	render := func(col *hp.SweepCollapsed) string {
		var out bytes.Buffer
		for _, format := range []string{"csv", "json", "table"} {
			if err := col.Write(&out, format); err != nil {
				t.Fatal(err)
			}
		}
		return out.String()
	}
	grid, run := hp.TwoJobSweep(2)
	full, err := hp.RunSweepCollapsed(grid, run, hp.SweepOptions{Parallel: 4, Seed: 7}, "rep")
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*hp.SweepCollapsed, shards)
	for i := 0; i < shards; i++ {
		grid, run := hp.TwoJobSweep(2)
		opts := hp.SweepOptions{Parallel: 4, Seed: 7, Shard: hp.SweepShard{Index: i, Count: shards}}
		col, err := hp.RunSweepCollapsed(grid, run, opts, "rep")
		if err != nil {
			t.Fatal(err)
		}
		var file bytes.Buffer
		if err := col.WriteShard(&file); err != nil {
			t.Fatal(err)
		}
		if parts[i], err = hp.ReadSweepShard(&file); err != nil {
			t.Fatal(err)
		}
	}
	// Merge in a non-trivial order to exercise order independence.
	merged, err := hp.MergeSweepShards(parts[2], parts[0], parts[1])
	if err != nil {
		t.Fatal(err)
	}
	if render(merged) != render(full) {
		t.Fatal("merged shard output differs from the single-process sweep")
	}
}

// TestSimSweepBackendMatchesCanned proves the backend repackaging of
// the simulator path changed no bytes: SimSweep("twojob") renders
// identically to the direct canned grid at any parallelism.
func TestSimSweepBackendMatchesCanned(t *testing.T) {
	b, err := hp.SimSweep("twojob", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "sim" {
		t.Errorf("backend name = %q, want sim", b.Name())
	}
	viaBackend, err := hp.RunSweepBackend(b, hp.SweepOptions{Parallel: 8, Seed: 1}, "rep")
	if err != nil {
		t.Fatal(err)
	}
	grid, run := hp.TwoJobSweep(1)
	direct, err := hp.RunSweepCollapsed(grid, run, hp.SweepOptions{Parallel: 2, Seed: 1}, "rep")
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := viaBackend.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if err := direct.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatal("SimSweep backend output differs from the canned twojob sweep")
	}
	if _, err := hp.SimSweep("nope", 0, 1); err == nil {
		t.Fatal("unknown scenario should fail")
	}
}

// TestEvictSweepCoversPolicies checks the eviction-policy axis: the
// grid restricts to the preempting schedulers, carries one value per
// policy, and a reduced slice runs to completion with the policy label
// reaching the cluster.
func TestEvictSweepCoversPolicies(t *testing.T) {
	grid, run := hp.ClusterSweep(4, 1, "most-progress", "least-progress")
	var sched, evict *hp.SweepAxis
	for i, a := range grid.Axes {
		switch a.Name {
		case "sched":
			sched = &grid.Axes[i]
		case "evict":
			evict = &grid.Axes[i]
		case "nodes":
			grid.Axes[i].Values = a.Values[:1]
		case "mix":
			grid.Axes[i].Values = a.Values[1:2]
		}
	}
	if sched == nil || evict == nil {
		t.Fatal("expected sched and evict axes")
	}
	if len(sched.Values) != 2 {
		t.Fatalf("sched axis has %d values, want fair+hfsp only", len(sched.Values))
	}
	if len(evict.Values) != 2 {
		t.Fatalf("evict axis has %d values, want 2 policies", len(evict.Values))
	}
	col, err := hp.RunSweepCollapsed(grid, run, hp.SweepOptions{Parallel: 4, Seed: 5}, "rep")
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Groups) != 4 {
		t.Fatalf("groups = %d, want sched x evict = 4", len(col.Groups))
	}
	for _, g := range col.Groups {
		if g.Metrics["sojourn_mean_s"].Mean <= 0 {
			t.Errorf("%s: non-positive mean sojourn", g.Key)
		}
	}
	// An unknown policy must surface as a cell error, proving the axis
	// value actually reaches the cluster's eviction wiring.
	badGrid, badRun := hp.ClusterSweep(2, 1, "no-such-policy")
	for i, a := range badGrid.Axes {
		switch a.Name {
		case "sched", "nodes", "mix":
			badGrid.Axes[i].Values = a.Values[:1]
		}
	}
	if _, err := hp.RunSweepCollapsed(badGrid, badRun, hp.SweepOptions{Parallel: 1, Seed: 1}, "rep"); err == nil {
		t.Fatal("unknown eviction policy should fail the cell")
	}
}

// TestClusterSweepRuns smoke-tests the cluster-scale grid on a reduced
// slice: every scheduler completes a small workload and reports sane
// aggregates.
func TestClusterSweepRuns(t *testing.T) {
	grid, run := hp.ClusterSweep(4, 1)
	// Reduce to one node count and one mix to keep the test quick.
	for i, a := range grid.Axes {
		switch a.Name {
		case "nodes":
			grid.Axes[i].Values = a.Values[:1]
		case "mix":
			grid.Axes[i].Values = a.Values[1:2]
		}
	}
	col, err := hp.RunSweepCollapsed(grid, run, hp.SweepOptions{Parallel: 3, Seed: 5}, "rep")
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Groups) != 3 {
		t.Fatalf("groups = %d, want 3 schedulers", len(col.Groups))
	}
	for _, g := range col.Groups {
		if g.Metrics["sojourn_mean_s"].Mean <= 0 {
			t.Errorf("scheduler %s reported non-positive mean sojourn", g.Labels["sched"])
		}
		if g.Metrics["sojourn_p95_s"].Mean < g.Metrics["sojourn_mean_s"].Mean {
			t.Errorf("scheduler %s: p95 below mean", g.Labels["sched"])
		}
	}
}

// TestLargeTraceReplayGoldenHash runs the large-trace replay smoke run
// (`hadoopsim -backend replay -trace-gen 1200 -trace-shards 3
// -replay-timescale 10 -replay-window 64 -reps 1 -seed 1 -format csv`,
// `make replay-check`) in process and checks its CSV against the
// committed hash golden.
func TestLargeTraceReplayGoldenHash(t *testing.T) {
	checkReplay1200Hash(t, "fifo", "goldens/replay_trace1200.sha256")
}

// TestHFSPReplayGoldenHash runs the same replay under HFSP with suspend
// (the command above with `-replay-sched hfsp`, also in
// `make replay-check`), so a change to HFSP's decisions cannot pass
// unnoticed.
func TestHFSPReplayGoldenHash(t *testing.T) {
	checkReplay1200Hash(t, "hfsp", "goldens/replay_hfsp1200.sha256")
}

// checkReplay1200Hash replays the synthesized 1,200-job trace in three
// shards under sched and compares the CSV's SHA-256 with golden.
func checkReplay1200Hash(t *testing.T, sched, golden string) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := hp.SynthesizeSWIMTrace(1200)
	if err != nil {
		t.Fatal(err)
	}
	backend, err := hp.ReplaySweep(hp.ReplayConfig{
		Jobs:      trace,
		Shards:    3,
		Reps:      1,
		Scheduler: sched,
		TimeScale: 10,
		Window:    64,
	})
	if err != nil {
		t.Fatal(err)
	}
	col, err := hp.RunSweepBackend(backend, hp.SweepOptions{Parallel: 3, Seed: 1}, "rep")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := col.Write(&out, "csv"); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(out.Bytes())
	if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(string(want)) {
		t.Fatalf("%s replay hash %s != golden %s", sched, got, strings.TrimSpace(string(want)))
	}
}
