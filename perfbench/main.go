// Command perfbench is the repository benchmark. It runs one workload
// for a fixed time from a seed, checks every output byte for byte, and
// prints the workload's end-to-end metrics (or, with --trace 1, its
// per-layer metrics) by name and unit. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it through run.sh from the root of a hadooppreempt tree:
//
//	bash perfbench/run.sh --workload replay-fifo --seed 3 --seconds 15 --trace 0
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the JSON verdict printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func mainCode(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, fmt.Sprintf("seed the workload's inputs derive from, modulo %d", digestSeeds))
	seconds := fs.Float64("seconds", 10, "measured time of the run")
	trace := fs.Int("trace", 0, "1 for the traced run, which prints per-layer metrics")
	record := fs.Bool("record-digests", false, fmt.Sprintf("rewrite %s for input seeds [0, %d) and exit", digestsFile, digestSeeds))
	if err := fs.Parse(args); err != nil {
		return 2
	}
	absRoot, err := filepath.Abs(".") // run.sh runs from the tree's root
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, ok := findWorkload(*name)
	if !*record && (!ok || *seconds <= 0 || (*trace != 0 && *trace != 1)) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	scratch := filepath.Join(absRoot, ".bench_build", "run", fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	if *record {
		if err := recordDigests(absRoot, scratch, runtime.NumCPU()); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	b := &bench{
		root: absRoot, seed: *seed, seconds: *seconds, traced: *trace == 1,
		nproc: runtime.NumCPU(), scratch: scratch, out: stdout,
	}
	res, err := benchmark(b, w, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// benchmark runs the workload and reports it: a readable summary on
// b.out, errors on stderr, and the verdict as the returned result.
func benchmark(b *bench, w workloadSpec, stderr io.Writer) (*result, error) {
	h := fingerprint()
	hostLine, _ := json.Marshal(h) // strings and finite numbers always encode
	fmt.Fprintf(b.out, "perfbench %s seed=%d seconds=%g trace=%v\nhost %s\n", w.name, b.seed, b.seconds, b.traced, hostLine)
	r, t, err := execute(b, w)
	if err != nil && r == nil {
		return nil, err
	}
	if err != nil {
		r.errs = append(r.errs, err)
	}
	res := &result{Correct: len(r.errs) == 0, Attempted: max(r.attempted, 1), Failed: r.failed}
	for _, e := range r.errs {
		fmt.Fprintln(stderr, "perfbench:", e)
	}
	var mismatch *mismatchError
	for _, e := range r.errs {
		if errors.As(e, &mismatch) {
			res.Failed = res.Attempted
		}
	}
	fmt.Fprintf(b.out, "check: %s; %d cold passes, %d warm passes; failed_op_frac %g (%d of %d ops)\n",
		r.check.source, len(r.cold), len(r.warm), float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)

	var rows, info []row
	if b.traced {
		if t == nil {
			t = &traced{tr: newTracer()}
		}
		rows = perLayer(t, h)
		fmt.Fprintf(b.out, "traced outputs byte-identical to untraced: %v; tracing overhead %.3fx; spans in .bench_build/traces/\n",
			res.Correct, t.overhead)
	} else {
		rows, info = endToEnd(r)
		fmt.Fprintf(b.out, "  %-32s %14s %s  [q1 .. q3, samples]\n", "metric", "median", "unit")
	}
	res.Metrics = map[string]metric{}
	for _, x := range rows {
		res.Metrics[x.name] = metric{x.med, x.unit}
		if b.traced {
			fmt.Fprintf(b.out, "  %-32s %14.6g %s\n", x.name, x.med, x.unit)
		} else {
			fmt.Fprintf(b.out, "  %-32s %14.6g %s  [%.6g .. %.6g, n=%d]\n", x.name, x.med, x.unit, x.q1, x.q3, x.n)
		}
	}
	for _, x := range info {
		fmt.Fprintf(b.out, "  %-32s %14.6g %s  [%.6g .. %.6g, n=%d]\n", x.name, x.med, x.unit, x.q1, x.q3, x.n)
	}
	return res, nil
}
