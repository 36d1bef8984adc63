package workload

import (
	"testing"
	"time"

	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/scheduler"
	"hadooppreempt/internal/sim"
)

func TestGenerateCountAndOrder(t *testing.T) {
	specs, err := Generate(DefaultConfig(), sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 20 {
		t.Fatalf("specs = %d, want 20", len(specs))
	}
	for i := 1; i < len(specs); i++ {
		if specs[i].SubmitAt < specs[i-1].SubmitAt {
			t.Fatal("submissions must be time-ordered")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(DefaultConfig(), sim.NewRNG(7))
	b, _ := Generate(DefaultConfig(), sim.NewRNG(7))
	for i := range a {
		if a[i].SubmitAt != b[i].SubmitAt || a[i].InputBytes != b[i].InputBytes {
			t.Fatalf("spec %d diverged", i)
		}
	}
}

func TestGenerateRespectsMinSize(t *testing.T) {
	cfg := DefaultConfig()
	specs, _ := Generate(cfg, sim.NewRNG(3))
	for _, s := range specs {
		var class *JobClass
		for i := range cfg.Classes {
			if cfg.Classes[i].Name == s.Class {
				class = &cfg.Classes[i]
			}
		}
		if class == nil {
			t.Fatalf("unknown class %q", s.Class)
		}
		if s.InputBytes < class.MinInputBytes {
			t.Fatalf("job %s input %d below class floor %d", s.Conf.Name, s.InputBytes, class.MinInputBytes)
		}
	}
}

func TestGenerateMixesClasses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Count = 200
	specs, _ := Generate(cfg, sim.NewRNG(5))
	byClass := make(map[string]int)
	for _, s := range specs {
		byClass[s.Class]++
	}
	if byClass["interactive"] == 0 || byClass["batch"] == 0 {
		t.Fatalf("class mix degenerate: %v", byClass)
	}
	if byClass["interactive"] <= byClass["batch"] {
		t.Fatalf("interactive (%d) should dominate batch (%d) at 70/30 weights",
			byClass["interactive"], byClass["batch"])
	}
}

func TestGenerateValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	bad := []Config{
		{Count: 0, MeanInterarrival: time.Second, Classes: DefaultConfig().Classes},
		{Count: 1, MeanInterarrival: 0, Classes: DefaultConfig().Classes},
		{Count: 1, MeanInterarrival: time.Second},
		{Count: 1, MeanInterarrival: time.Second, Classes: []JobClass{{Name: "x", Weight: -1, MapParseRate: 1}}},
		{Count: 1, MeanInterarrival: time.Second, Classes: []JobClass{{Name: "x", Weight: 1, MapParseRate: 0}}},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg, rng); err == nil {
			t.Fatalf("config %d should be rejected", i)
		}
	}
}

func TestInstallRunsWorkload(t *testing.T) {
	ccfg := mapreduce.DefaultClusterConfig()
	ccfg.Nodes = 4
	ccfg.Node.MapSlots = 2
	ccfg.Node.Memory.PageSize = 1 << 20
	cluster, err := mapreduce.NewCluster(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	cluster.JobTracker().SetScheduler(scheduler.NewFIFO(cluster.JobTracker()))

	cfg := Config{
		MeanInterarrival: 5 * time.Second,
		Count:            6,
		Classes: []JobClass{{
			Name: "small", Weight: 1,
			InputBytesMu: 17, InputBytesSigma: 0.3, MinInputBytes: 16 << 20,
			MapParseRate: 32e6,
		}},
	}
	specs, err := Generate(cfg, sim.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	names, err := InstallWindowed(cluster, specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 6 {
		t.Fatalf("installed %d jobs, want 6", len(names))
	}
	// Jobs submit over virtual time; run until all done.
	cluster.RunUntil(time.Hour)
	jobs := cluster.JobTracker().Jobs()
	if len(jobs) != 6 {
		t.Fatalf("submitted %d jobs, want 6", len(jobs))
	}
	for _, j := range jobs {
		if j.State() != mapreduce.JobSucceeded {
			t.Fatalf("job %s state %v", j.ID(), j.State())
		}
	}
}
