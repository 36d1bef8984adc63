package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"hadooppreempt/internal/core"
)

func TestRunTwoJobValidation(t *testing.T) {
	p := DefaultTwoJobParams()
	p.PreemptAt = 0
	if _, err := RunTwoJob(p); err == nil {
		t.Fatal("PreemptAt 0 should fail")
	}
	p = DefaultTwoJobParams()
	p.InputBytes = 0
	if _, err := RunTwoJob(p); err == nil {
		t.Fatal("zero input should fail")
	}
}

func TestRunTwoJobDeterministic(t *testing.T) {
	p := DefaultTwoJobParams()
	p.Primitive = core.Suspend
	a, err := RunTwoJob(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTwoJob(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.SojournTH != b.SojournTH || a.Makespan != b.Makespan {
		t.Fatalf("same seed diverged: %v/%v vs %v/%v",
			a.SojournTH, a.Makespan, b.SojournTH, b.Makespan)
	}
}

func TestRunTwoJobSeedVariesHeartbeatPhase(t *testing.T) {
	p := DefaultTwoJobParams()
	q := p
	q.Seed = 99
	a, _ := RunTwoJob(p)
	b, _ := RunTwoJob(q)
	// Different heartbeat phases shift the trigger slightly; identical
	// results for all metrics would suggest the seed is ignored.
	if a.THSubmittedAt == b.THSubmittedAt {
		t.Log("th submitted at identical times for different seeds (possible but unlikely)")
	}
}

// TestFigure2Shapes validates the qualitative claims of Figure 2 with one
// repetition per point.
func TestFigure2Shapes(t *testing.T) {
	res, err := Figure2(Config{Reps: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	wait := res.Sojourn["wait"]
	kill := res.Sojourn["kill"]
	susp := res.Sojourn["susp"]

	// Wait's sojourn decreases with r (less of tl remains).
	first, _ := wait.YAt(10)
	last, _ := wait.YAt(90)
	if first <= last {
		t.Fatalf("wait sojourn should decrease: %v at 10%% vs %v at 90%%", first, last)
	}
	// Kill and susp are ~flat and far below wait at small r.
	kill10, _ := kill.YAt(10)
	susp10, _ := susp.YAt(10)
	if kill10 >= first || susp10 >= first {
		t.Fatalf("kill (%v) and susp (%v) should beat wait (%v) at r=10%%", kill10, susp10, first)
	}
	// Susp outperforms kill at every r (kill pays the cleanup attempt) —
	// the paper's headline for Figure 2a.
	for _, r := range ProgressSweep() {
		k, _ := kill.YAt(r)
		s, _ := susp.YAt(r)
		if s >= k {
			t.Fatalf("at r=%v%% susp sojourn (%v) should beat kill (%v)", r, s, k)
		}
	}
	// Susp even beats wait at r=90% (the paper highlights this).
	susp90, _ := susp.YAt(90)
	wait90, _ := wait.YAt(90)
	if susp90 >= wait90 {
		t.Fatalf("susp (%v) should beat wait (%v) even at r=90%%", susp90, wait90)
	}

	// Makespan: kill grows with r (wasted work); wait and susp ~flat and
	// close.
	mkill := res.Makespan["kill"]
	mwait := res.Makespan["wait"]
	msusp := res.Makespan["susp"]
	k10, _ := mkill.YAt(10)
	k90, _ := mkill.YAt(90)
	if k90 <= k10 {
		t.Fatalf("kill makespan should grow with r: %v -> %v", k10, k90)
	}
	for _, r := range ProgressSweep() {
		w, _ := mwait.YAt(r)
		s, _ := msusp.YAt(r)
		k, _ := mkill.YAt(r)
		if s > w*1.05 {
			t.Fatalf("at r=%v%% susp makespan (%v) should be within 5%% of wait (%v)", r, s, w)
		}
		if r >= 20 && k <= s {
			t.Fatalf("at r=%v%% kill makespan (%v) should exceed susp (%v)", r, k, s)
		}
	}
}

// TestFigure3Shapes validates the worst-case ordering: susp pays visible
// paging overhead but stays between the two extremes on both metrics.
func TestFigure3Shapes(t *testing.T) {
	res, err := Figure3(Config{Reps: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{30, 50, 70} {
		wait, _ := res.Sojourn["wait"].YAt(r)
		kill, _ := res.Sojourn["kill"].YAt(r)
		susp, _ := res.Sojourn["susp"].YAt(r)
		// Paper: kill achieves slightly lower sojourn than susp in the
		// worst case; both far below wait.
		if !(kill <= susp && susp < wait) {
			t.Fatalf("r=%v%%: want kill (%v) <= susp (%v) < wait (%v)", r, kill, susp, wait)
		}
		mwait, _ := res.Makespan["wait"].YAt(r)
		mkill, _ := res.Makespan["kill"].YAt(r)
		msusp, _ := res.Makespan["susp"].YAt(r)
		// Paper: wait achieves slightly smaller makespan; kill is worst.
		if !(mwait <= msusp && msusp < mkill) {
			t.Fatalf("r=%v%%: want wait (%v) <= susp (%v) < kill (%v)", r, mwait, msusp, mkill)
		}
	}
}

// TestFigure4Shapes validates the overhead analysis: no swap below the
// memory threshold, superlinear growth past it, overhead correlated with
// swapped volume.
func TestFigure4Shapes(t *testing.T) {
	res, err := Figure4(Config{Reps: 1, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Points
	if len(pts) != 5 {
		t.Fatalf("points = %d, want 5", len(pts))
	}
	if pts[0].PagedMB != 0 {
		t.Fatalf("th=0: paged %v MB, want 0", pts[0].PagedMB)
	}
	last := pts[len(pts)-1]
	if last.PagedMB < 500 {
		t.Fatalf("th=2.5GB: paged %v MB, want substantial swap", last.PagedMB)
	}
	// Monotone non-decreasing swap volume.
	for i := 1; i < len(pts); i++ {
		if pts[i].PagedMB < pts[i-1].PagedMB {
			t.Fatalf("paged bytes decreased at point %d: %v -> %v", i, pts[i-1].PagedMB, pts[i].PagedMB)
		}
	}
	// Overheads grow once swapping starts.
	if last.SojournOverheadSec <= pts[0].SojournOverheadSec {
		t.Fatal("sojourn overhead should grow with th memory")
	}
	if last.MakespanOverheadSec <= pts[0].MakespanOverheadSec {
		t.Fatal("makespan overhead should grow with th memory")
	}
	// The paper reports worst-case degradations of ~20% (sojourn) and
	// ~12% (makespan); ours must be in a credible band, not runaway.
	if last.SojournOverheadFrac < 0.02 || last.SojournOverheadFrac > 0.5 {
		t.Fatalf("worst-case sojourn degradation %v, want a visible but bounded fraction", last.SojournOverheadFrac)
	}
	if last.MakespanOverheadFrac < 0.02 || last.MakespanOverheadFrac > 0.5 {
		t.Fatalf("worst-case makespan degradation %v, want a visible but bounded fraction", last.MakespanOverheadFrac)
	}
}

func TestFigure1GanttCharts(t *testing.T) {
	res, err := Figure1(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, prim := range []string{"wait", "kill", "susp"} {
		g, ok := res.Gantt[prim]
		if !ok || len(g) == 0 {
			t.Fatalf("missing gantt for %s", prim)
		}
		if !strings.Contains(g, "tl") || !strings.Contains(g, "th") {
			t.Fatalf("%s gantt missing rows:\n%s", prim, g)
		}
	}
	if !strings.Contains(res.Gantt["susp"], "=") {
		t.Fatalf("susp gantt should show a suspended span:\n%s", res.Gantt["susp"])
	}
	if !strings.Contains(res.Gantt["kill"], "c") {
		t.Fatalf("kill gantt should show a cleanup span:\n%s", res.Gantt["kill"])
	}
}

// TestSliceResultGeneratorsParallelMatchSerial runs the generators whose
// cells write typed results into a caller-owned slice at their grid
// index, at -parallel 4 and serially: the results must be identical
// (and, under -race, the concurrent writes race-free).
func TestSliceResultGeneratorsParallelMatchSerial(t *testing.T) {
	gens := map[string]func(Config) (any, error){
		"figure1":  func(c Config) (any, error) { return Figure1(c) },
		"cycles":   func(c Config) (any, error) { return CycleSweep(2, false, c) },
		"eviction": func(c Config) (any, error) { return EvictionSweep([]string{"smallest-memory", "largest-memory"}, c) },
		"advisor":  func(c Config) (any, error) { return RunAdvisorSweep([]float64{0.02, 0.5}, c) },
	}
	for name, gen := range gens {
		serial, err := gen(Config{Seed: 5, Parallel: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		parallel, err := gen(Config{Seed: 5, Parallel: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("%s: -parallel 4 result differs from the serial one", name)
		}
	}
}

func TestNatjamAblation(t *testing.T) {
	res, err := NatjamAblation(Config{Reps: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	// OS-assisted suspension has negligible makespan overhead vs wait;
	// checkpointing pays serialization/deserialization every time.
	if res.SuspendOverheadFrac > 0.03 {
		t.Fatalf("suspend overhead %v, want negligible (< 3%%)", res.SuspendOverheadFrac)
	}
	if res.CheckpointOverheadFrac <= res.SuspendOverheadFrac {
		t.Fatalf("checkpoint overhead (%v) should exceed suspend (%v)",
			res.CheckpointOverheadFrac, res.SuspendOverheadFrac)
	}
}

func TestComparisonFormatting(t *testing.T) {
	res, err := Figure2(Config{Reps: 1, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatComparison("Figure 2", res)
	if !strings.Contains(out, "sojourn") || !strings.Contains(out, "makespan") {
		t.Fatalf("formatted output incomplete:\n%s", out)
	}
	for _, col := range []string{"wait", "kill", "susp"} {
		if !strings.Contains(out, col) {
			t.Fatalf("missing column %s", col)
		}
	}
}

func TestPaperErrorBarClaim(t *testing.T) {
	// The paper: "minimum and maximum values measured are within 5% of
	// the average". Check our suspend runs behave similarly across seeds.
	var sojourns []float64
	for seed := uint64(1); seed <= 5; seed++ {
		p := DefaultTwoJobParams()
		p.Seed = seed
		out, err := RunTwoJob(p)
		if err != nil {
			t.Fatal(err)
		}
		sojourns = append(sojourns, out.SojournTH.Seconds())
	}
	max, min := sojourns[0], sojourns[0]
	for _, s := range sojourns {
		if s > max {
			max = s
		}
		if s < min {
			min = s
		}
	}
	if (max-min)/min > 0.10 {
		t.Fatalf("sojourn spread too wide across seeds: min=%v max=%v", min, max)
	}
}

func TestTwoJobTraceSpans(t *testing.T) {
	p := DefaultTwoJobParams()
	out, err := RunTwoJob(p)
	if err != nil {
		t.Fatal(err)
	}
	spans := out.Trace.Spans()
	if len(spans) < 3 {
		t.Fatalf("trace has %d spans, want tl running, tl suspended, th running at least", len(spans))
	}
	makespan := out.Trace.Makespan()
	if makespan <= 0 || makespan > 10*time.Minute {
		t.Fatalf("trace makespan %v implausible", makespan)
	}
}
