package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// bench is one benchmark run's configuration and scratch space.
type bench struct {
	root    string // the source tree under test
	seed    uint64
	seconds float64
	traced  bool
	nproc   int
	scratch string // removed when the run ends
	out     io.Writer
	// corrupt flips one byte of the first checked output, to show that
	// the output check fails the whole run.
	corrupt bool
	temps   int
}

// tempDir returns a fresh directory under the run's scratch space.
func (b *bench) tempDir(kind string) string {
	b.temps++
	return filepath.Join(b.scratch, fmt.Sprintf("%s-%d", kind, b.temps))
}

// meter measures a pass's timed region: host wall time always; process
// CPU time and heap allocation too when full is set. A pass made of
// several units of work calls between after each but the last; the
// meter runs its hook there, outside the timed region.
type meter struct {
	full   bool
	hook   func()
	ref    *refSeries // takes a reference slice before each unit
	units  int        // between calls so far, plus one
	t0     time.Time
	cpu0   time.Duration
	alloc0 uint64
	wall   time.Duration
	cpu    time.Duration
	alloc  uint64
}

func (m *meter) start() {
	if m.ref != nil {
		m.ref.take()
	}
	if m.full {
		m.cpu0, m.alloc0 = processCPU(), heapAlloc()
	}
	m.units++
	m.t0 = time.Now()
}

func (m *meter) stop() {
	m.wall += time.Since(m.t0)
	if m.full {
		m.cpu += processCPU() - m.cpu0
		m.alloc += heapAlloc() - m.alloc0
	}
}

func (m *meter) between() {
	m.stop()
	if m.hook != nil {
		m.hook()
	}
	m.start()
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// sample is one timed cold pass.
type sample struct {
	ops                         int
	wall                        time.Duration
	opsPerS, cpuMsOp, allocKBOp float64
}

func newSample(ops int, m *meter) sample {
	return sample{
		ops: ops, wall: m.wall,
		opsPerS:   ratio(float64(ops), m.wall.Seconds()),
		cpuMsOp:   ratio(float64(m.cpu)/float64(time.Millisecond), float64(ops)),
		allocKBOp: ratio(float64(m.alloc)/1024, float64(ops)),
	}
}

// Set-up is timed in batches, each repeating the set-up until the
// repetitions took setupBatch in all, between two garbage collections so
// that no other batch's or pass's garbage is collected inside it. An
// untimed batch first grows the heap; setupFirst batches follow before
// the timed region, and the untraced run adds one after every cold pass
// with its warm passes once an eighth of the budget has passed since the
// last, so the batches sample the host's speed over the whole run.
// setup_s is the median over the batches of the mean set-up time.
const (
	setupFirst = 3
	setupBatch = 60 * time.Millisecond
	setupEvery = 8
)

// Warm passes run in bursts: after each cold pass and, in untraced
// runs, between the units of work of a cold pass (a replay pass's
// traces) once an earlier cold pass has filled the cache. Each burst
// repeats warm passes until it took max(warmMin, an eighth of the last
// cold pass's time / its units), at most warmMax times, so warm time is
// about an eighth of cold time and its samples are spread over the run
// instead of a few bursts, which the host's speed swings would bias.
const (
	warmMin = 50 * time.Millisecond
	warmMax = 2000
)

// run is the state of one workload run.
type run struct {
	b     *bench
	w     workloadSpec
	inst  instance
	check *checker
	ref   *refSeries // nil in traced runs, whose figures are not scaled
	setup []float64
	cold  []sample
	warm  []float64     // ops per second of each warm pass
	burst time.Duration // the length of a warm burst
	// attempted and failed count ops over every pass of the run.
	attempted, failed int
	errs              []error
}

// pass runs one pass and checks its outputs. A pass that errors fails
// its ops.
func (r *run) pass(what string, fn func() (int, []part, error)) (int, []part, bool) {
	ops, parts, err := fn()
	if err != nil {
		r.errs = append(r.errs, fmt.Errorf("%s pass: %w", what, err))
		n := max(ops, 1)
		r.attempted += n
		r.failed += n
		return 0, nil, false
	}
	r.attempted += ops
	if r.b.corrupt && len(parts) > 0 && len(parts[0].data) > 0 {
		parts[0].data = append([]byte(nil), parts[0].data...)
		parts[0].data[len(parts[0].data)/2] ^= 0x20
		r.b.corrupt = false
	}
	for _, p := range parts {
		if err := r.check.part(p); err != nil {
			r.errs = append(r.errs, fmt.Errorf("%s pass: %w", what, err))
		}
	}
	return ops, parts, true
}

// iteration is one cold pass and the warm passes after it.
type iteration struct {
	cold     sample
	outputs  []part        // the cold pass's outputs
	warmWall time.Duration // summed over the warm passes
}

// coldAndWarm runs one cold pass and the warm passes that follow it.
func (r *run) coldAndWarm(tr *tracer) (iteration, bool) {
	var it iteration
	m := &meter{full: true, ref: r.ref}
	ok := true
	if tr == nil {
		m.hook = func() {
			if ok && r.burst > 0 && r.inst.cellCache() != nil {
				_, ok = r.warmBurst(nil)
			}
		}
	}
	ops, parts, passOK := r.pass("cold", func() (int, []part, error) { return r.inst.cold(m, tr) })
	if !passOK || !ok {
		return it, false
	}
	it.cold, it.outputs = newSample(ops, m), parts
	r.burst = max(warmMin, m.wall/8/time.Duration(m.units))
	it.warmWall, ok = r.warmBurst(tr)
	return it, ok
}

// warmBurst runs warm passes for one burst and returns their time.
func (r *run) warmBurst(tr *tracer) (time.Duration, bool) {
	var spent time.Duration
	for i := 0; i < warmMax && spent < r.burst; i++ {
		wm := &meter{}
		ops, _, ok := r.pass("warm", func() (int, []part, error) { return r.inst.warm(wm, tr) })
		if !ok {
			return spent, false
		}
		r.warm = append(r.warm, ratio(float64(ops), wm.wall.Seconds()))
		spent += wm.wall
	}
	return spent, true
}

// measure runs cold+warm iterations until the budget is spent (at least
// one), returning the cold samples. With setups set, it times set-up
// batches between the iterations.
func (r *run) measure(budget time.Duration, setups bool) ([]sample, error) {
	var out []sample
	start := time.Now()
	last := start
	for len(out) == 0 || time.Since(start) < budget {
		it, ok := r.coldAndWarm(nil)
		if !ok {
			break
		}
		out = append(out, it.cold)
		if setups && time.Since(last) >= budget/setupEvery {
			if err := r.setupBatch(false); err != nil {
				return out, err
			}
			last = time.Now()
		}
	}
	return out, nil
}

// execute sets the workload up, runs it for the configured time and
// returns the run. Traced runs also fill in tracing state.
func execute(b *bench, w workloadSpec) (*run, *traced, error) {
	ck, err := newChecker(b, w.name)
	if err != nil {
		return nil, nil, err
	}
	r := &run{b: b, w: w, check: ck}
	if !b.traced {
		r.ref = &refSeries{}
	}
	for i := range setupFirst + 1 {
		if err := r.setupBatch(i == setupFirst); err != nil {
			return nil, nil, err
		}
		if i == 0 {
			r.setup = r.setup[:0] // the untimed batch
		}
	}
	defer r.inst.close()
	if _, _, ok := r.pass("prepare", r.inst.prepare); !ok {
		return r, nil, nil
	}
	budget := time.Duration(b.seconds * float64(time.Second))
	if !b.traced {
		r.cold, err = r.measure(budget, true)
		return r, nil, err
	}
	t, err := r.traceRun(budget)
	return r, t, err
}

// setupBatch times one batch of set-ups and records the mean set-up
// time. With keep set, the batch's last instance becomes the run's.
func (r *run) setupBatch(keep bool) error {
	if r.ref != nil {
		r.ref.take()
	}
	runtime.GC()
	var spent time.Duration
	n := 0
	for spent < setupBatch {
		start := time.Now()
		inst, err := r.w.setup(r.b)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		spent += time.Since(start)
		n++
		if keep && spent >= setupBatch {
			r.inst = inst
		} else {
			inst.close()
		}
	}
	r.setup = append(r.setup, spent.Seconds()/float64(n))
	runtime.GC()
	return nil
}

// traced holds what a traced run adds: its tracer, the CPU profile's
// per-package shares, the replay scaling probe and the tracing
// overhead.
type traced struct {
	tr        *tracer
	shares    map[string]float64
	history   float64
	overhead  float64
	gcCycles  uint32
	gcPauseMS float64
	pass      iteration // the traced cold pass and its warm passes
	cache     cacheUse
	durable   []time.Duration // the traced pass's checkpoints, written durably
}

// traceRun spends a quarter of the budget on untraced reference
// passes, a quarter on untraced passes under the CPU profiler, then runs
// exactly one prepare pass and one traced cold pass with its warm
// passes, so the per-layer counts cover a fixed amount of work. The
// reference passes, the traced pass and the replay scaling probe all run
// without the profiler, so the ratios between them compare like with
// like.
func (r *run) traceRun(budget time.Duration) (*traced, error) {
	dir := filepath.Join(r.b.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", r.w.name, r.b.seed))
	var err error
	if r.cold, err = r.measure(budget/4, false); err != nil {
		return nil, err
	}
	prof, err := os.Create(stem + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	_, err = r.measure(budget/4, false)
	pprof.StopCPUProfile()
	if err != nil {
		prof.Close()
		return nil, err
	}
	if err := prof.Close(); err != nil {
		return nil, err
	}

	// A fresh cell cache (filled by prepare, or by the cold pass itself)
	// makes the cache counts below cover exactly its writes and the
	// traced warm passes' hits.
	t := &traced{tr: newTracer()}
	if _, _, ok := r.pass("prepare", r.inst.prepare); !ok {
		return t, nil
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	it, ok := r.coldAndWarm(t.tr)
	runtime.ReadMemStats(&after)
	if !ok {
		return t, nil
	}
	t.pass = it
	t.cache = cacheUsage(r.inst.cellCache())
	t.gcCycles = after.NumGC - before.NumGC
	t.gcPauseMS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	t.overhead = ratio(float64(it.cold.wall)/float64(it.cold.ops), median(wallPerOp(r.cold)))
	if ri, ok := r.inst.(*replayInst); ok && r.w.name == "replay-fifo" {
		if t.history, err = historyRatio(r.b, ri, r.cold); err != nil {
			return t, err
		}
	}
	if t.durable, err = t.tr.durableCheckpoints(r.b.tempDir("ckpt")); err != nil {
		return t, err
	}
	if err := t.tr.write(stem + ".spans.json"); err != nil {
		return t, err
	}
	t.shares, err = cpuShares(stem + ".cpu.pprof")
	return t, err
}

func wallPerOp(ss []sample) []float64 {
	var v []float64
	for _, s := range ss {
		v = append(v, float64(s.wall)/float64(s.ops))
	}
	return v
}
