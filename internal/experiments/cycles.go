package experiments

import (
	"fmt"
	"time"

	"hadooppreempt/internal/core"
	"hadooppreempt/internal/disk"
	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/scheduler"
	"hadooppreempt/internal/sweep"
)

// CycleParams configures the suspend/resume cycle-cost experiment of
// §III-A: "Thrashing could only happen if a given job is continuously
// suspended and resumed by the scheduling mechanism: the moderate cost
// of a suspend-resume cycle can be thus multiplied by the number of
// cycles."
//
// A long low-priority job tl is preempted once per arriving
// high-priority job; each cycle pages tl's state out and back in.
type CycleParams struct {
	// Cycles is the number of suspend/resume cycles tl endures.
	Cycles int
	// TLExtraMemory is tl's state allocation (the paged volume per
	// cycle).
	TLExtraMemory int64
	// THExtraMemory is each high-priority job's allocation (it creates
	// the pressure).
	THExtraMemory int64
	// Stateful makes tl re-dirty its state while processing, so every
	// cycle pays the paging cost again (without it, pages go out and in
	// at most once, §III-A's benign case).
	Stateful bool
	// Seed drives randomness.
	Seed uint64
}

// DefaultCycleParams uses the worst-case 2 GB allocations.
func DefaultCycleParams(cycles int) CycleParams {
	return CycleParams{
		Cycles:        cycles,
		TLExtraMemory: WorstCaseMemory,
		THExtraMemory: WorstCaseMemory,
		Seed:          1,
	}
}

// CycleResult is the outcome of a cycle-cost run.
type CycleResult struct {
	// Cycles is the suspend count actually observed.
	Cycles int
	// TLSojourn is tl's submission-to-completion time.
	TLSojourn time.Duration
	// TLSwapOut / TLSwapIn accumulate tl's paging traffic across all
	// cycles.
	TLSwapOut int64
	TLSwapIn  int64
	// PeakSwapRate is the highest observed swap traffic over a 10 s
	// window (bytes/s) — the §III-A thrashing indicator.
	PeakSwapRate float64
}

// RunCycles executes the experiment once.
func RunCycles(p CycleParams) (*CycleResult, error) {
	if p.Cycles < 0 {
		return nil, fmt.Errorf("experiments: negative cycle count")
	}
	ccfg := mapreduce.DefaultClusterConfig()
	ccfg.Seed = p.Seed
	cluster, err := mapreduce.NewCluster(ccfg)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	eng := cluster.Engine()
	jt := cluster.JobTracker()
	dummy := scheduler.NewDummy(jt)
	defer dummy.Release()
	jt.SetScheduler(dummy)
	deviceFor := func(tracker string) *disk.Device {
		for _, n := range cluster.Nodes() {
			if n.Tracker.Name() == tracker {
				return n.Device
			}
		}
		return nil
	}
	preemptor, err := core.NewPreemptor(eng, jt, core.Suspend, deviceFor, core.CheckpointConfig{})
	if err != nil {
		return nil, err
	}

	if err := cluster.CreateInput("/cycles/tl", 512<<20); err != nil {
		return nil, err
	}
	tlJob, err := jt.Submit(mapreduce.JobConf{
		Name:             "tl",
		InputPath:        "/cycles/tl",
		MapParseRate:     6.5e6,
		ExtraMemoryBytes: p.TLExtraMemory,
		StatefulMapper:   p.Stateful,
	})
	if err != nil {
		return nil, err
	}
	tlTask := tlJob.MapTasks()[0].ID()

	// Sample the peak swap rate as the run progresses.
	mem := cluster.Node(0).Memory
	peak := 0.0
	var sample func()
	sample = func() {
		if r := mem.SwapRate(10 * time.Second); r > peak {
			peak = r
		}
		eng.Schedule(2*time.Second, sample)
	}
	eng.Schedule(2*time.Second, sample)

	// Chain the cycles: the k-th high-priority job arrives when tl
	// crosses an evenly spaced progress threshold; tl is suspended for
	// it and resumed when it completes.
	for k := 0; k < p.Cycles; k++ {
		name := fmt.Sprintf("th%02d", k)
		path := "/cycles/" + name
		if err := cluster.CreateInput(path, 64<<20); err != nil {
			return nil, err
		}
		threshold := 0.15 + 0.7*float64(k)/float64(p.Cycles)
		conf := mapreduce.JobConf{
			Name:             name,
			InputPath:        path,
			Priority:         10,
			MapParseRate:     6.5e6, // ~10 s high-priority job
			ExtraMemoryBytes: p.THExtraMemory,
		}
		dummy.AddTrigger(scheduler.Trigger{
			Event: scheduler.OnProgress, Job: "tl", Threshold: threshold,
			Do: func() {
				if _, err := jt.Submit(conf); err != nil {
					panic(fmt.Sprintf("experiments: submit %s: %v", name, err))
				}
				// A coarse progress report can cross two thresholds at
				// once; overlapping cycles collapse into one suspension,
				// so a failed (redundant) preempt is fine.
				_, _ = preemptor.Preempt(tlTask)
			},
		})
		dummy.AddTrigger(scheduler.Trigger{
			Event: scheduler.OnComplete, Job: name,
			Do: func() {
				// Redundant restores (collapsed cycles) are fine too.
				_ = preemptor.Restore(tlTask)
			},
		})
	}

	if !cluster.RunUntilJobsDone(6 * time.Hour) {
		return nil, fmt.Errorf("experiments: cycle run did not converge")
	}
	tl, _ := jt.Task(tlTask)
	return &CycleResult{
		Cycles:       tl.Suspensions(),
		TLSojourn:    tlJob.CompletedAt() - tlJob.SubmittedAt(),
		TLSwapOut:    tl.SwapOutBytes(),
		TLSwapIn:     tl.SwapInBytes(),
		PeakSwapRate: peak,
	}, nil
}

// CycleSweep runs 0..maxCycles through the harness and returns one
// result per count, demonstrating that per-cycle cost is roughly
// constant (so total cost scales with the number of cycles, the
// scheduler-design warning of §III-A). With stateful set, the victim
// re-dirties its pages between cycles and the paging volume itself
// multiplies; without, pages go out and in at most once. The cycle axis
// is seed-paired: every count faces identical cluster randomness, so
// differences are pure cycle cost.
func CycleSweep(maxCycles int, stateful bool, cfg Config) ([]*CycleResult, error) {
	counts := make([]int, 0, maxCycles+1)
	for n := 0; n <= maxCycles; n++ {
		counts = append(counts, n)
	}
	g := sweep.NewGrid(sweep.Ints("cycles", counts...)).Pair("cycles")
	// Each cell writes only its own element; RunCollapsed returns after
	// every cell has finished.
	out := make([]*CycleResult, g.Size())
	_, err := sweep.RunCollapsed(g, func(pt sweep.Point, _ *sweep.Recorder) error {
		p := DefaultCycleParams(pt.Int("cycles"))
		p.Stateful = stateful
		p.Seed = pt.Seed
		r, err := RunCycles(p)
		if err != nil {
			return err
		}
		out[pt.Index] = r
		return nil
	}, cfg.options())
	if err != nil {
		return nil, err
	}
	return out, nil
}
