package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// profiledPackages are the layers a CPU sample can be charged to: the
// innermost hadooppreempt/internal/<pkg> frame of its stack, "gc" for
// garbage-collector work (background marking, sweeping, assists), and
// "other" for everything else (runtime, net/http, the benchmark).
var profiledPackages = []string{
	"sim", "memory", "ossim", "disk", "hdfs", "mapreduce", "scheduler",
	"core", "advisor", "workload", "experiments", "sweep", "coord",
	"gc", "other",
}

const internalPrefix = "hadooppreempt/internal/"

var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
}

// cpuShares reads a CPU profile with the toolchain's pprof and returns
// each layer's share of the sampled CPU time.
func cpuShares(path string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(out)
}

// parseTraces charges every sample of `pprof -traces` output to a
// layer. Each sample is a block opened by a dashed rule; its first line
// carries the sampled time and the leaf frame, the lines below it the
// callers.
func parseTraces(out []byte) (map[string]float64, error) {
	charge := map[string]float64{}
	var total float64
	var value float64
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			charge[layerOf(frames)] += value
			total += value
		}
		frames = nil
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			frames = []string{}
			continue
		}
		if frames == nil {
			continue // header lines before the first sample
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(frames) == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: unexpected sample line %q", line)
			}
			value = d.Seconds()
			fields = fields[1:]
		}
		frames = append(frames, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof traces: profile holds no samples")
	}
	for k := range charge {
		charge[k] /= total
	}
	return charge, nil
}

// layerOf charges a stack (leaf first) to a layer.
func layerOf(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if f == g {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			pkg, _, _ = strings.Cut(pkg, "/")
			for _, p := range profiledPackages {
				if p == pkg {
					return pkg
				}
			}
			return "other"
		}
	}
	return "other"
}
