package hadooppreempt_test

// The benchmark harness regenerates every table/figure of the paper's
// evaluation (§IV). One benchmark per figure; the headline numbers are
// attached as custom metrics so `go test -bench` output doubles as the
// reproduction record:
//
//	go test -bench=. -benchmem
//
// Figures 2/3 report seconds at r=50%; Figure 4 reports the worst-case
// point. Absolute values depend on the simulated hardware; the shapes are
// the reproduction target (see EXPERIMENTS.md).

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	hp "hadooppreempt"
	"hadooppreempt/internal/experiments"
	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/metrics"
	"hadooppreempt/internal/sweep"
)

// benchSeed keeps benchmark runs reproducible.
const benchSeed = 1

// benchCfg builds the serial sweep configuration the benchmarks use.
func benchCfg(reps int) hp.ExperimentConfig {
	return hp.ExperimentConfig{Reps: reps, Seed: benchSeed}
}

// BenchmarkFigure1Schedules regenerates the task execution schedules of
// Figure 1 (wait / kill / suspend at r=50%).
func BenchmarkFigure1Schedules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := hp.Figure1(benchCfg(1))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Gantt) != 3 {
			b.Fatalf("gantt charts = %d, want 3", len(res.Gantt))
		}
	}
}

// BenchmarkFigure2aSojournLightweight regenerates Figure 2a: sojourn time
// of th vs tl progress, light-weight tasks.
func BenchmarkFigure2aSojournLightweight(b *testing.B) {
	var res *experiments.ComparisonResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = hp.Figure2(benchCfg(1))
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAt(b, res.Sojourn, 50, "sojourn_s")
}

// BenchmarkFigure2bMakespanLightweight regenerates Figure 2b: makespan vs
// tl progress, light-weight tasks.
func BenchmarkFigure2bMakespanLightweight(b *testing.B) {
	var res *experiments.ComparisonResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = hp.Figure2(benchCfg(1))
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAt(b, res.Makespan, 50, "makespan_s")
}

// BenchmarkFigure3aSojournWorstCase regenerates Figure 3a: sojourn time
// with memory-hungry (2 GB) tasks.
func BenchmarkFigure3aSojournWorstCase(b *testing.B) {
	var res *experiments.ComparisonResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = hp.Figure3(benchCfg(1))
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAt(b, res.Sojourn, 50, "sojourn_s")
}

// BenchmarkFigure3bMakespanWorstCase regenerates Figure 3b: makespan with
// memory-hungry tasks.
func BenchmarkFigure3bMakespanWorstCase(b *testing.B) {
	var res *experiments.ComparisonResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = hp.Figure3(benchCfg(1))
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAt(b, res.Makespan, 50, "makespan_s")
}

// BenchmarkFigure4MemoryFootprint regenerates Figure 4: tl's swap traffic
// and the susp overheads vs kill/wait as th's allocation grows.
func BenchmarkFigure4MemoryFootprint(b *testing.B) {
	var res *experiments.Figure4Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = hp.Figure4(benchCfg(1))
		if err != nil {
			b.Fatal(err)
		}
	}
	last := res.Points[len(res.Points)-1]
	b.ReportMetric(last.PagedMB, "paged_MB@2.5G")
	b.ReportMetric(last.SojournOverheadFrac*100, "sojourn_ovh_%")
	b.ReportMetric(last.MakespanOverheadFrac*100, "makespan_ovh_%")
}

// BenchmarkAblationCheckpointVsSuspend reproduces the §IV-C comparison
// with Natjam-style checkpointing: the application-level primitive pays
// serialization on every preemption, the OS-assisted one does not.
func BenchmarkAblationCheckpointVsSuspend(b *testing.B) {
	var res *experiments.NatjamResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = hp.NatjamAblation(benchCfg(1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.SuspendOverheadFrac*100, "susp_ovh_%")
	b.ReportMetric(res.CheckpointOverheadFrac*100, "ckpt_ovh_%")
}

// BenchmarkAblationHeartbeatInterval quantifies the control-latency
// component of the suspend primitive: commands ride heartbeats (§III-B),
// so a longer interval delays the slot hand-off. Out-of-band heartbeats
// are disabled here — with them on, piggybacking masks the interval
// entirely (see BenchmarkAblationOutOfBandHeartbeats).
func BenchmarkAblationHeartbeatInterval(b *testing.B) {
	for _, hb := range []int{1, 3, 10} {
		hb := hb
		b.Run(benchName("hb", hb, "s"), func(b *testing.B) {
			var sojourn float64
			for i := 0; i < b.N; i++ {
				ccfg := mapreduce.DefaultClusterConfig()
				ccfg.Engine.HeartbeatInterval = durSeconds(hb)
				ccfg.Engine.OutOfBandHeartbeats = false
				p := hp.DefaultTwoJobParams()
				p.Primitive = hp.Suspend
				p.Cluster = &ccfg
				out, err := hp.RunTwoJob(p)
				if err != nil {
					b.Fatal(err)
				}
				sojourn = out.SojournTH.Seconds()
			}
			b.ReportMetric(sojourn, "sojourn_s")
		})
	}
}

// BenchmarkAblationOutOfBandHeartbeats isolates the out-of-band
// heartbeat: without it, a freed slot waits for the next regular
// heartbeat before the high-priority task can launch.
func BenchmarkAblationOutOfBandHeartbeats(b *testing.B) {
	for _, oob := range []bool{true, false} {
		oob := oob
		name := "enabled"
		if !oob {
			name = "disabled"
		}
		b.Run(name, func(b *testing.B) {
			var sojourn float64
			for i := 0; i < b.N; i++ {
				ccfg := mapreduce.DefaultClusterConfig()
				ccfg.Engine.OutOfBandHeartbeats = oob
				p := hp.DefaultTwoJobParams()
				p.Primitive = hp.Suspend
				p.Cluster = &ccfg
				out, err := hp.RunTwoJob(p)
				if err != nil {
					b.Fatal(err)
				}
				sojourn = out.SojournTH.Seconds()
			}
			b.ReportMetric(sojourn, "sojourn_s")
		})
	}
}

// BenchmarkAblationPageClusterSize varies the kernel's reclaim batch size
// (vm.page-cluster analogue): bigger batches over-evict more, the
// mechanism behind Figure 4's superlinear swap growth.
func BenchmarkAblationPageClusterSize(b *testing.B) {
	for _, pages := range []int{4, 32, 128} {
		pages := pages
		b.Run(benchName("cluster", pages, "pages"), func(b *testing.B) {
			var swapped float64
			for i := 0; i < b.N; i++ {
				ccfg := mapreduce.DefaultClusterConfig()
				ccfg.Node.Memory.PageClusterPages = pages
				p := hp.DefaultTwoJobParams()
				p.Primitive = hp.Suspend
				p.TLExtraMemory = experiments.Figure4TLMemory
				p.THExtraMemory = experiments.Figure4TLMemory
				p.Cluster = &ccfg
				out, err := hp.RunTwoJob(p)
				if err != nil {
					b.Fatal(err)
				}
				swapped = float64(out.SwapOutTL) / float64(1<<20)
			}
			b.ReportMetric(swapped, "tl_swapout_MB")
		})
	}
}

// BenchmarkAblationSwappiness contrasts swappiness 0 (Hadoop best
// practice: cache reclaimed first) with swappiness 100.
func BenchmarkAblationSwappiness(b *testing.B) {
	for _, sw := range []int{0, 100} {
		sw := sw
		b.Run(benchName("swappiness", sw, ""), func(b *testing.B) {
			var swapped float64
			for i := 0; i < b.N; i++ {
				ccfg := mapreduce.DefaultClusterConfig()
				ccfg.Node.Memory.Swappiness = sw
				p := hp.DefaultTwoJobParams()
				p.Primitive = hp.Suspend
				p.TLExtraMemory = experiments.WorstCaseMemory
				p.THExtraMemory = experiments.WorstCaseMemory
				p.Cluster = &ccfg
				out, err := hp.RunTwoJob(p)
				if err != nil {
					b.Fatal(err)
				}
				swapped = float64(out.SwapOutTL+out.SwapInTL) / float64(1<<20)
			}
			b.ReportMetric(swapped, "tl_swap_MB")
		})
	}
}

// BenchmarkAblationSuspendResumeCycles measures §III-A's warning: each
// suspend/resume cycle has a moderate cost that multiplies with the
// cycle count, so schedulers should avoid churning the same victim.
func BenchmarkAblationSuspendResumeCycles(b *testing.B) {
	for _, cycles := range []int{1, 3, 6} {
		cycles := cycles
		b.Run(benchName("cycles", cycles, ""), func(b *testing.B) {
			var sojourn, swapMB float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunCycles(experiments.DefaultCycleParams(cycles))
				if err != nil {
					b.Fatal(err)
				}
				sojourn = res.TLSojourn.Seconds()
				swapMB = float64(res.TLSwapOut+res.TLSwapIn) / float64(1<<20)
			}
			b.ReportMetric(sojourn, "tl_sojourn_s")
			b.ReportMetric(swapMB, "tl_swap_MB")
		})
	}
}

// BenchmarkAblationEvictionPolicy compares victim-selection policies in
// the §V-A scenario: suspending the task with the smallest memory
// footprint minimizes paging.
func BenchmarkAblationEvictionPolicy(b *testing.B) {
	for _, policy := range []string{"smallest-memory", "largest-memory", "most-progress"} {
		policy := policy
		b.Run(policy, func(b *testing.B) {
			var swap, makespan float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunEvictionComparison(policy, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				swap = float64(res.VictimSwap) / float64(1<<20)
				makespan = res.Makespan.Seconds()
			}
			b.ReportMetric(swap, "victim_swap_MB")
			b.ReportMetric(makespan, "makespan_s")
		})
	}
}

// BenchmarkAblationAdvisor evaluates the §V-A cost model (kill young,
// wait for nearly-done, suspend the middle) against fixed primitives.
func BenchmarkAblationAdvisor(b *testing.B) {
	var res []*experiments.AdvisorResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunAdvisorSweep([]float64{0.02, 0.5, 0.97}, benchCfg(1))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res {
		b.ReportMetric(r.Makespans["advisor"].Seconds(),
			fmt.Sprintf("advisor_mk_s@r%.0f%%", r.R*100))
	}
}

// BenchmarkFullGrid20Reps runs the paper's full two-job grid at its 20
// repetitions (540 cells) through the streaming-collapse engine — the
// grid-scale throughput the sharded sweep work targets. The headline
// metrics are the r=50% sojourn means over all 20 repetitions, which
// are deterministic and golden-gated.
func BenchmarkFullGrid20Reps(b *testing.B) {
	var col *hp.SweepCollapsed
	for i := 0; i < b.N; i++ {
		grid, cell := hp.TwoJobSweep(20)
		var err error
		col, err = hp.RunSweepCollapsed(grid, cell,
			hp.SweepOptions{Parallel: runtime.GOMAXPROCS(0), Seed: benchSeed}, "rep")
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, g := range col.Groups {
		if g.Labels["r"] == "50" {
			b.ReportMetric(g.Metrics["sojourn_th_s"].Mean, g.Labels["prim"]+"_sojourn20_s")
		}
	}
}

// BenchmarkLargeTraceReplay drives a synthesized 1200-job Facebook-like
// SWIM trace (hp.SynthesizeSWIMTrace, deterministic in the job count)
// through the full cluster engine as one replay cell, streaming inputs
// through a 64-job window instead of materializing all 1200 up front.
// -replay-timescale 10 compresses the trace's day of arrivals so the
// simulated cluster runs saturated — the heavy-traffic regime the
// quiescent heartbeat path exists for. The virtual-time throughput and
// mean sojourn are deterministic physics and golden-gated; wall-clock
// throughput is jobs / (ns/op), tracked via ns/op but never gated.
func BenchmarkLargeTraceReplay(b *testing.B) {
	const jobs = 1200
	col := benchReplay(b, jobs)
	for _, g := range col.Groups {
		makespan := g.Metrics["makespan_s"].Mean
		if done := g.Metrics["jobs"].Mean; done != jobs {
			b.Fatalf("replayed %v jobs, want %d", done, jobs)
		}
		b.ReportMetric(jobs/makespan, "virt_jobs_per_s")
		b.ReportMetric(g.Metrics["sojourn_mean_s"].Mean, "sojourn_mean_s")
	}
}

// BenchmarkReplayScaling runs the BenchmarkLargeTraceReplay cell at
// growing trace lengths and reports wall-clock ns/job, so cost that
// grows faster than the job count shows as a rising ns/job. Wall-clock
// only, so it is volatile: reported, never gated.
func BenchmarkReplayScaling(b *testing.B) {
	for _, jobs := range []int{600, 1200, 2400, 4800} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			benchReplay(b, jobs)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*jobs), "ns/job")
		})
	}
}

// benchReplay replays a synthesized jobs-long SWIM trace as one FIFO
// cell, b.N times, and returns the last run's result.
func benchReplay(b *testing.B, jobs int) *hp.SweepCollapsed {
	trace, err := hp.SynthesizeSWIMTrace(jobs)
	if err != nil {
		b.Fatal(err)
	}
	backend, err := hp.ReplaySweep(hp.ReplayConfig{
		Jobs:      trace,
		Shards:    1,
		Reps:      1,
		TimeScale: 10,
		Window:    64,
	})
	if err != nil {
		b.Fatal(err)
	}
	grid, err := backend.Grid()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var col *hp.SweepCollapsed
	for i := 0; i < b.N; i++ {
		col, err = hp.RunSweepCollapsed(grid, backend.Cell,
			hp.SweepOptions{Parallel: 1, Seed: benchSeed}, "rep")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	return col
}

// BenchmarkSweepCollapse measures per-cell allocations of the
// streaming-collapse path on a synthetic grid, so harness overhead —
// not simulation cost — is what is measured. The allocs/cell metric
// lands in BENCH_sweep.json but is exempt from golden gating
// (allocator behavior may drift with the toolchain); the sweep package
// test TestStreamingCollapseAllocsPerCell holds it to at most one.
func BenchmarkSweepCollapse(b *testing.B) {
	grid := func() sweep.Grid {
		return sweep.NewGrid(
			sweep.Strings("prim", "wait", "kill", "susp"),
			sweep.Floats("r", 10, 50, 90),
			sweep.Reps(100),
		).Pair("prim")
	}
	cells := float64(grid().Size())
	b.Run("stream", func(b *testing.B) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < b.N; i++ {
			_, err := sweep.RunCollapsed(grid(), func(pt sweep.Point, rec *sweep.Recorder) error {
				v := float64(pt.Seed >> 12)
				rec.Observe("sojourn_s", v)
				rec.Observe("makespan_s", 2*v)
				return nil
			}, sweep.Options{Seed: benchSeed}, sweep.RepAxis)
			if err != nil {
				b.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/cells, "allocs/cell")
	})
}

// reportAt attaches the three primitives' values at a given r as metrics.
func reportAt(b *testing.B, series map[string]*metrics.Series, r float64, unit string) {
	b.Helper()
	for _, prim := range []string{"wait", "kill", "susp"} {
		if s, ok := series[prim]; ok {
			if y, found := s.YAt(r); found {
				b.ReportMetric(y, prim+"_"+unit)
			}
		}
	}
}

// benchName builds a sub-benchmark label like "hb=3s".
func benchName(key string, v int, unit string) string {
	return fmt.Sprintf("%s=%d%s", key, v, unit)
}

// durSeconds converts whole seconds to a duration.
func durSeconds(s int) time.Duration { return time.Duration(s) * time.Second }

// BenchmarkCellCache measures the cell-result cache on a synthetic grid
// whose cells are nearly free, so what is timed is cache overhead — the
// cold path (execute + verify-write every entry) and the warm path
// (verified replay of every entry). Timing lands in BENCH_sweep.json
// but is exempt from golden gating, like BenchmarkSweepCollapse.
func BenchmarkCellCache(b *testing.B) {
	grid := sweep.NewGrid(
		sweep.Strings("prim", "wait", "kill", "susp"),
		sweep.Floats("r", 10, 50, 90),
		sweep.Reps(50),
	).Pair("prim")
	cell := func(pt sweep.Point, rec *sweep.Recorder) error {
		rec.Observe("m0", float64(pt.Seed>>12))
		rec.Observe("m1", float64(pt.Index))
		return nil
	}
	cells := float64(grid.Size())
	run := func(b *testing.B, cache *hp.CellCache) {
		col, err := hp.RunSweepCollapsed(grid, cell,
			hp.SweepOptions{Parallel: runtime.GOMAXPROCS(0), Seed: benchSeed, Cache: cache}, "rep")
		if err != nil || len(col.Groups) == 0 {
			b.Fatalf("sweep failed: %v", err)
		}
	}
	b.Run("miss", func(b *testing.B) {
		// Every iteration fills a fresh cache: miss + store per cell.
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cache, err := hp.NewCellCache(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			run(b, cache)
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/cells, "us/cell")
	})
	b.Run("hit", func(b *testing.B) {
		cache, err := hp.NewCellCache(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		run(b, cache) // cold fill outside the timed loop
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, cache)
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/cells, "us/cell")
		b.StopTimer()
		cc := cache.Counters()
		if cc.Hits == 0 || cc.Misses != int64(cells) {
			b.Fatalf("warm loop did not replay: %+v", cc)
		}
	})
}
