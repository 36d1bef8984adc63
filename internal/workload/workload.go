// Package workload generates synthetic MapReduce workloads in the style
// of SWIM (the workload suites of Chen et al., which the paper's §IV-A
// references as the methodology behind its synthetic jobs): job
// inter-arrival times and input sizes drawn from configurable
// distributions, with a mix of small interactive jobs and large batch
// jobs.
package workload

import (
	"fmt"
	"time"

	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/sim"
)

// JobClass describes one class of jobs in the mix (e.g. "interactive",
// "batch").
type JobClass struct {
	// Name labels jobs of this class.
	Name string
	// Weight is the relative frequency of the class.
	Weight float64
	// InputBytesMu and InputBytesSigma parameterize the log-normal input
	// size distribution.
	InputBytesMu    float64
	InputBytesSigma float64
	// MinInputBytes floors the sampled size.
	MinInputBytes int64
	// MapParseRate is the class's mapper throughput (bytes/s).
	MapParseRate float64
	// ExtraMemoryBytes is the per-task state allocation.
	ExtraMemoryBytes int64
	// Priority and Pool are passed through to the JobConf.
	Priority int
	Pool     string
}

// Config describes a workload.
type Config struct {
	// MeanInterarrival is the mean of the exponential inter-arrival
	// distribution.
	MeanInterarrival time.Duration
	// Classes is the job mix; weights need not sum to 1.
	Classes []JobClass
	// Count is the number of jobs to generate.
	Count int
}

// DefaultConfig returns a Facebook-like mix: mostly small interactive
// jobs with a tail of large batch jobs (the skew SWIM reports).
func DefaultConfig() Config {
	return Config{
		MeanInterarrival: 30 * time.Second,
		Count:            20,
		Classes: []JobClass{
			{
				Name:            "interactive",
				Weight:          0.7,
				InputBytesMu:    18.5, // ~108 MB median
				InputBytesSigma: 0.7,
				MinInputBytes:   16 << 20,
				MapParseRate:    8e6,
			},
			{
				Name:            "batch",
				Weight:          0.3,
				InputBytesMu:    20.5, // ~800 MB median
				InputBytesSigma: 0.5,
				MinInputBytes:   256 << 20,
				MapParseRate:    8e6,
			},
		},
	}
}

// JobSpec is one generated job.
type JobSpec struct {
	// SubmitAt is the absolute submission time.
	SubmitAt time.Duration
	// Class is the class name the job was drawn from.
	Class string
	// Conf is ready for JobTracker.Submit once InputPath exists.
	Conf mapreduce.JobConf
	// InputBytes is the sampled input size.
	InputBytes int64
}

// Generate samples a workload trace. It is deterministic for a given rng
// state.
func Generate(cfg Config, rng *sim.RNG) ([]JobSpec, error) {
	if cfg.Count <= 0 {
		return nil, fmt.Errorf("workload: count must be positive")
	}
	if cfg.MeanInterarrival <= 0 {
		return nil, fmt.Errorf("workload: mean interarrival must be positive")
	}
	if len(cfg.Classes) == 0 {
		return nil, fmt.Errorf("workload: need at least one class")
	}
	totalWeight := 0.0
	for _, c := range cfg.Classes {
		if c.Weight < 0 {
			return nil, fmt.Errorf("workload: class %s has negative weight", c.Name)
		}
		if c.MapParseRate <= 0 {
			return nil, fmt.Errorf("workload: class %s needs a positive parse rate", c.Name)
		}
		totalWeight += c.Weight
	}
	if totalWeight <= 0 {
		return nil, fmt.Errorf("workload: total class weight must be positive")
	}
	var specs []JobSpec
	var clock time.Duration
	for i := 0; i < cfg.Count; i++ {
		gap := time.Duration(rng.ExpFloat64() * float64(cfg.MeanInterarrival))
		clock += gap
		class := pickClass(cfg.Classes, totalWeight, rng)
		size := int64(rng.LogNormal(class.InputBytesMu, class.InputBytesSigma))
		if size < class.MinInputBytes {
			size = class.MinInputBytes
		}
		name := fmt.Sprintf("%s-%03d", class.Name, i)
		specs = append(specs, JobSpec{
			SubmitAt:   clock,
			Class:      class.Name,
			InputBytes: size,
			Conf: mapreduce.JobConf{
				Name:             name,
				InputPath:        "/workload/" + name,
				Priority:         class.Priority,
				Pool:             class.Pool,
				MapParseRate:     class.MapParseRate,
				ExtraMemoryBytes: class.ExtraMemoryBytes,
			},
		})
	}
	return specs, nil
}

// pickClass samples a class proportionally to weight.
func pickClass(classes []JobClass, total float64, rng *sim.RNG) *JobClass {
	x := rng.Float64() * total
	for i := range classes {
		x -= classes[i].Weight
		if x <= 0 {
			return &classes[i]
		}
	}
	return &classes[len(classes)-1]
}

// InstallWindowed creates the jobs' input files and schedules their
// submissions on the cluster. It returns the submitted jobs' names in
// order; the jobs themselves materialize as virtual time advances.
//
// Input materialization is bounded: at most window inputs exist ahead
// of the submission frontier, so a multi-thousand-job trace does not
// allocate every HDFS file up front. Submissions are all scheduled at
// install time, and inputs are created in spec order (HDFS placement
// draws from a private RNG consumed only at creation, so deferring
// creation to any point before the first read leaves block IDs and
// replica placement unchanged). Output is therefore byte-identical for
// any window.
//
// Windowing requires specs sorted by SubmitAt (the submission frontier
// is what pulls the next input into existence). window <= 0, a window
// covering every spec, and unsorted specs all create every input up
// front.
func InstallWindowed(cluster *mapreduce.Cluster, specs []JobSpec, window int) ([]string, error) {
	if window <= 0 || window >= len(specs) || !sortedBySubmit(specs) {
		window = len(specs)
	}
	create := func(i int) error {
		if err := cluster.CreateInput(specs[i].Conf.InputPath, specs[i].InputBytes); err != nil {
			return fmt.Errorf("workload: input for %s: %w", specs[i].Conf.Name, err)
		}
		return nil
	}
	for i := 0; i < window; i++ {
		if err := create(i); err != nil {
			return nil, err
		}
	}
	names := make([]string, 0, len(specs))
	for i := range specs {
		i := i
		spec := specs[i]
		cluster.Engine().At(spec.SubmitAt, func() {
			// Submissions fire in spec order (nondecreasing times, FIFO
			// at ties), so creating spec i+window here keeps global
			// creation order and guarantees every input exists before
			// its own submission.
			if i+window < len(specs) {
				if err := create(i + window); err != nil {
					panic(err.Error())
				}
			}
			if _, err := cluster.JobTracker().Submit(spec.Conf); err != nil {
				panic(fmt.Sprintf("workload: submit %s: %v", spec.Conf.Name, err))
			}
		})
		names = append(names, spec.Conf.Name)
	}
	return names, nil
}

// sortedBySubmit reports whether specs are in nondecreasing submission
// order.
func sortedBySubmit(specs []JobSpec) bool {
	for i := 1; i < len(specs); i++ {
		if specs[i].SubmitAt < specs[i-1].SubmitAt {
			return false
		}
	}
	return true
}
