package main

import (
	"bytes"
	"encoding/csv"
	"io/fs"
	"path/filepath"
	"strconv"
	"time"

	"hadooppreempt/internal/sweep"
	"hadooppreempt/internal/workload"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is one reported metric: its median (the value) and, for
// end-to-end metrics, the quartiles and count of the samples behind it.
type row struct {
	name, unit  string
	q1, med, q3 float64
	n           int
}

func summarize(name, unit string, v []float64) row {
	q1, med, q3 := quartiles(v)
	return row{name, unit, q1, med, q3, len(v)}
}

// endToEnd computes the untraced run's metrics, each the median over
// the run's cold passes (setup_s over its set-up batches). Host-time
// figures are scaled to the reference host (see ref.go). info holds
// them unscaled, the warm passes' throughput and the reference slices'
// CPU time, for the readable output only: warm passes mostly read cache
// files, whose kernel cost swings on a shared host far more than any
// bound a gated metric may have.
func endToEnd(r *run) (rows, info []row) {
	pick := func(f func(sample) float64) []float64 {
		var v []float64
		for _, s := range r.cold {
			v = append(v, f(s))
		}
		return v
	}
	f := r.ref.scale()
	scaled := func(v []float64, by float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * by
		}
		return out
	}
	ops := pick(func(s sample) float64 { return s.opsPerS })
	cpu := pick(func(s sample) float64 { return s.cpuMsOp })
	rows = []row{
		summarize("setup_s", "s", scaled(r.setup, f)),
		summarize("norm_ops_per_s", "1/s", scaled(ops, 1/f)),
		summarize("norm_cpu_ms_per_op", "ms", scaled(cpu, f)),
		summarize("alloc_kb_per_op", "KiB", pick(func(s sample) float64 { return s.allocKBOp })),
		summarize("peak_rss_mb", "MiB", []float64{peakRSSMiB()}),
	}
	info = []row{
		summarize("unscaled setup_s", "s", r.setup),
		summarize("unscaled ops_per_s", "1/s", ops),
		summarize("norm_warm_ops_per_s", "1/s", scaled(r.warm, 1/f)),
		summarize("unscaled warm_ops_per_s", "1/s", r.warm),
		summarize("unscaled cpu_ms_per_op", "ms", cpu),
		summarize("reference slice cpu", "ms", r.ref.cpu),
	}
	return rows, info
}

// perLayer computes the traced run's per-layer metrics. A layer the
// workload does not exercise, or whose counters its cells do not expose,
// reads 0; see README.md.
func perLayer(t *traced, h host) []row {
	tr := t.tr
	s := tr.sim
	o := modelSums(t.pass.outputs)
	c := tr.coord
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	serverP := func(path string, p float64) float64 { return percentileUS(c.server[path], p) / 1000 }
	cells := tr.coldDurations("sweep.cell")
	var ckptBytes int
	for _, b := range c.ckpts {
		ckptBytes += len(b)
	}

	// Paging and preemption counts come from the clusters the benchmark
	// drives itself when it has them, otherwise from the cells' outputs.
	paged := float64(s.pagedBytes) / (1 << 20)
	preempt, useful, wasted := float64(s.suspended), ratio(float64(s.tasks), float64(s.attempts)), s.wasted.Seconds()
	if s.cells == 0 {
		paged, preempt = o.sum["paged_mb"], o.sum["tl_suspensions"]
		useful, wasted = ratio(o.n["tl_attempts"], o.sum["tl_attempts"]), o.sum["wasted_cpu_s"]
	}
	cc := t.cache
	one := func(name, unit string, v float64) row { return row{name: name, unit: unit, med: v, n: 1} }
	rows := []row{
		one("sim.events", "count", float64(s.events)),
		one("sim.events_per_s", "1/s", ratio(float64(s.events), s.cellHost.Seconds())),
		one("memory.major_faults", "count", float64(s.majorFaults)),
		one("memory.paged_mb", "MiB", paged),
		one("memory.reclaim_scans", "count", float64(s.reclaimScans)),
		one("disk.requests", "count", float64(s.diskRequests)),
		one("mapreduce.heartbeats", "count", float64(s.heartbeats)),
		one("mapreduce.consult_ratio", "ratio", ratio(float64(len(tr.assign)), float64(s.heartbeats))),
		one("mapreduce.task_transitions", "count", float64(s.transitions)),
		one("mapreduce.history_ratio", "ratio", t.history),
		one("scheduler.assign_calls", "count", float64(len(tr.assign))),
		one("scheduler.assign_ms", "ms", ms(sumDur(tr.assign))),
		one("scheduler.assign_p50_us", "us", percentileUS(tr.assign, 50)),
		one("scheduler.assign_p99_us", "us", percentileUS(tr.assign, 99)),
		one("core.preemptions", "count", preempt),
		one("core.resumes", "count", float64(s.resumed)),
		one("core.useful_attempt_ratio", "ratio", useful),
		one("core.wasted_cpu_s", "sim_s", wasted),
		one("sweep.cell_p50_us", "us", percentileUS(cells, 50)),
		one("sweep.cell_p99_us", "us", percentileUS(cells, 99)),
		one("sweep.dispatch_self_ms", "ms", ms(tr.selfTime("cold", "sweep.cell"))),
		one("sweep.encode_ms", "ms", ms(sumDur(tr.coldDurations("sweep.encode")))),
		one("cache.writes", "count", float64(cc.counts.Writes)),
		one("cache.hits", "count", float64(cc.counts.Hits)),
		one("cache.misses", "count", float64(cc.counts.Misses)),
		one("cache.bytes_per_entry", "B", ratio(float64(cc.bytes), float64(cc.entries))),
		one("cache.replay_us_per_cell", "us", ratio(float64(t.pass.warmWall)/float64(time.Microsecond), float64(cc.counts.Hits))),
		one("coord.join_p50_ms", "ms", serverP("/v1/join", 50)),
		one("coord.lease_p50_ms", "ms", serverP("/v1/lease", 50)),
		one("coord.lease_p99_ms", "ms", serverP("/v1/lease", 99)),
		one("coord.result_p50_ms", "ms", serverP("/v1/result", 50)),
		one("coord.result_p99_ms", "ms", serverP("/v1/result", 99)),
		one("coord.wait_ms", "ms", max(0, ms(sumDur(c.client)-serverTotal(c)))),
		one("coord.checkpoint_writes", "count", float64(len(c.ckpts))),
		one("coord.checkpoint_kb_per_write", "KiB", ratio(float64(ckptBytes)/1024, float64(len(c.ckpts)))),
		one("coord.checkpoint_ms", "ms", ms(sumDur(t.durable))),
		one("coord.useful_upload_ratio", "ratio", ratio(float64(c.leases), float64(c.uploads))),
		one("runtime.gc_cycles", "count", float64(t.gcCycles)),
		one("runtime.gc_pause_ms", "ms", t.gcPauseMS),
		one("model.sojourn_mean_s", "sim_s", o.mean("sojourn_mean_s", "sojourn_th_s")),
		one("model.makespan_s", "sim_s", o.mean("makespan_s")),
		one("model.suspensions", "count", o.sum["suspensions"]+o.sum["tl_suspensions"]),
		one("trace.overhead_ratio", "ratio", t.overhead),
		one("host.calib_ms", "ms", h.CalibMS),
	}
	for _, pkg := range profiledPackages {
		rows = append(rows, one("cpu."+pkg+"_share", "ratio", t.shares[pkg]))
	}
	return rows
}

// outputSums totals the metrics of a pass's CSV outputs over their
// cells: per metric, the cell count and the sum of the cell values.
type outputSums struct {
	n, sum map[string]float64
}

func modelSums(parts []part) outputSums {
	o := outputSums{n: map[string]float64{}, sum: map[string]float64{}}
	for _, p := range parts {
		rows, err := csv.NewReader(bytes.NewReader(p.data)).ReadAll()
		if err != nil || len(rows) == 0 {
			continue
		}
		col := map[string]int{}
		for i, h := range rows[0] {
			col[h] = i
		}
		mi, ci, ai := col["metric"], col["count"], col["mean"]
		for _, row := range rows[1:] {
			n, err1 := strconv.ParseFloat(row[ci], 64)
			mean, err2 := strconv.ParseFloat(row[ai], 64)
			if err1 == nil && err2 == nil {
				o.n[row[mi]] += n
				o.sum[row[mi]] += n * mean
			}
		}
	}
	return o
}

// mean is the cell-weighted mean of the first named metric present.
func (o outputSums) mean(names ...string) float64 {
	for _, name := range names {
		if o.n[name] > 0 {
			return o.sum[name] / o.n[name]
		}
	}
	return 0
}

func serverTotal(c coordCounters) time.Duration {
	var d time.Duration
	for path, ds := range c.server {
		if path != "/v1/status" {
			d += sumDur(ds)
		}
	}
	return d
}

// cacheUse is the cell cache activity of a traced pass.
type cacheUse struct {
	counts         sweep.CacheCounters
	bytes, entries int64
}

// cacheUsage reads a cell cache's counters and sizes its entries on
// disk.
func cacheUsage(c *sweep.Cache) cacheUse {
	var u cacheUse
	if c == nil {
		return u
	}
	u.counts = c.Counters()
	// The walk only sizes entries; an unreadable one is left out.
	_ = filepath.WalkDir(c.Dir(), func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				u.bytes += info.Size()
				u.entries++
			}
		}
		return nil
	})
	return u
}

// historyRatio is the FIFO replay scaling probe: host time per job when
// the pass's traces are cut to 600 jobs, against the run's unprofiled
// 4,800-job reference passes. Cost that grows with simulated history shows
// as a ratio above 1.
func historyRatio(b *bench, ri *replayInst, full []sample) (float64, error) {
	const shortJobs = 600
	var perJob []float64
	for i, cfg := range ri.cfgs {
		jobs, err := workload.SynthesizeTrace(shortJobs, traceSeed(b.inputSeed(), i))
		if err != nil {
			return 0, err
		}
		scfg := cfg
		scfg.Jobs = jobs
		be, err := workload.NewReplayBackend(scfg)
		if err != nil {
			return 0, err
		}
		for range 3 {
			start := time.Now()
			if _, _, err := runSweep(b, be, nil, nil); err != nil {
				return 0, err
			}
			perJob = append(perJob, float64(time.Since(start))/shortJobs)
		}
	}
	return ratio(median(wallPerOp(full)), median(perJob)), nil
}
