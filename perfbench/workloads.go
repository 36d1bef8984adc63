package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	hp "hadooppreempt"
	"hadooppreempt/internal/coord"
	"hadooppreempt/internal/sweep"
	"hadooppreempt/internal/workload"
)

// Workload sizes. The grids run at the paper's 20 repetitions; the
// dist-sweep coordinator leases 8 cells at a time to 2 workers.
const (
	gridReps   = 20
	leaseCells = 8
	distPeers  = 2
)

// A workload is one named input set the benchmark runs; README.md and
// BENCHMARK.json say why each was chosen.
type workloadSpec struct {
	name  string
	setup func(b *bench) (instance, error)
}

// An instance is a set-up workload. Every pass returns the ops it
// completed and its outputs, which the run checks byte for byte.
type instance interface {
	// prepare runs one untimed pass and fills the cell cache that warm
	// passes read, where cold passes do not fill it themselves.
	prepare() (int, []part, error)
	// cold runs one pass on the workload's normal path, timed by m.
	cold(m *meter, tr *tracer) (int, []part, error)
	// warm runs one pass answered entirely from the cell cache.
	warm(m *meter, tr *tracer) (int, []part, error)
	// cellCache is the cache warm passes read.
	cellCache() *sweep.Cache
	close()
}

// part is one named output of a pass.
type part struct {
	name string
	data []byte
}

var workloads = []workloadSpec{
	{"paper-grid", setupGrid},
	{"replay-fifo", setupReplay("fifo", 4800, 3)},
	{"replay-hfsp", setupReplay("hfsp", 400, 8)},
	{"dist-sweep", setupDist},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// gridBackends builds the twojob and pressure sweeps the paper's
// Figures 2-4 aggregate.
func gridBackends() ([]sweep.Backend, error) {
	var bs []sweep.Backend
	for _, sc := range gridParts {
		be, err := hp.SimSweep(sc, 0, gridReps)
		if err != nil {
			return nil, err
		}
		if _, err := be.Grid(); err != nil {
			return nil, err
		}
		bs = append(bs, be)
	}
	return bs, nil
}

var gridParts = []string{"twojob", "pressure"}

// runSweep runs one backend through the facade's in-process pool and
// encodes its CSV, the way hadoopsim -format csv does.
func runSweep(b *bench, be sweep.Backend, tr *tracer, cache *sweep.Cache) (int, []byte, error) {
	if tr != nil {
		be = tracedBackend{be, tr}
	}
	col, err := hp.RunSweepBackend(be, hp.SweepOptions{Parallel: b.nproc, Seed: b.inputSeed(), Cache: cache}, "rep")
	if err != nil {
		return 0, nil, err
	}
	return col.Cells(), encode(col, tr), nil
}

func encode(col *sweep.Collapsed, tr *tracer) []byte {
	id := tr.begin("sweep.encode")
	defer tr.end(id)
	var buf bytes.Buffer
	if err := col.WriteCSV(&buf); err != nil {
		// A bytes.Buffer never fails to write; an encoder error is a bug.
		panic(err)
	}
	return buf.Bytes()
}

// --- paper-grid ---------------------------------------------------------

type gridInst struct {
	b        *bench
	backends []sweep.Backend
	cache    *sweep.Cache
}

func setupGrid(b *bench) (instance, error) {
	bs, err := gridBackends()
	if err != nil {
		return nil, err
	}
	return &gridInst{b: b, backends: bs}, nil
}

func (g *gridInst) pass(kind string, m *meter, tr *tracer, cache *sweep.Cache) (int, []part, error) {
	pass := tr.startPass(kind)
	defer tr.end(pass)
	m.start()
	defer m.stop()
	ops := 0
	var parts []part
	for i, be := range g.backends {
		n, out, err := runSweep(g.b, be, tr, cache)
		if err != nil {
			return ops, parts, err
		}
		ops += n
		parts = append(parts, part{gridParts[i], out})
	}
	return ops, parts, nil
}

func (g *gridInst) prepare() (int, []part, error) {
	cache, err := hp.NewCellCache(g.b.tempDir("cache"))
	if err != nil {
		return 0, nil, err
	}
	g.cache = cache
	return g.pass("prepare", &meter{}, nil, cache)
}

func (g *gridInst) cold(m *meter, tr *tracer) (int, []part, error) {
	return g.pass("cold", m, tr, nil)
}

func (g *gridInst) warm(m *meter, tr *tracer) (int, []part, error) {
	return g.pass("warm", m, tr, g.cache)
}

func (g *gridInst) cellCache() *sweep.Cache { return g.cache }

func (g *gridInst) close() {}

// --- replay-fifo, replay-hfsp -------------------------------------------

type replayInst struct {
	b        *bench
	backends []*workload.ReplayBackend
	cfgs     []workload.ReplayConfig
	jobs     int
	cache    *sweep.Cache // filled by the last whole cold pass
}

// traceSeed derives the seed of a pass's i-th trace from the input seed.
func traceSeed(seed uint64, i int) uint64 { return seed<<4 | uint64(i) }

// replayConfig is the replay setting every replay workload shares: one
// shard, timescale 10, a 64-job input window, 2 nodes x 2 slots.
func replayConfig(jobs []workload.TraceJob, sched string) workload.ReplayConfig {
	return workload.ReplayConfig{
		Jobs: jobs, Shards: 1, Reps: 1, Nodes: 2, SlotsPerNode: 2,
		Scheduler: sched, MapParseRate: 8e6, TimeScale: 10,
		Deadline: 24 * time.Hour, Window: 64,
	}
}

func setupReplay(sched string, jobs, traces int) func(b *bench) (instance, error) {
	return func(b *bench) (instance, error) {
		r := &replayInst{b: b, jobs: jobs}
		for i := range traces {
			tj, err := workload.SynthesizeTrace(jobs, traceSeed(b.inputSeed(), i))
			if err != nil {
				return nil, err
			}
			cfg := replayConfig(tj, sched)
			be, err := workload.NewReplayBackend(cfg)
			if err != nil {
				return nil, err
			}
			r.backends = append(r.backends, be)
			r.cfgs = append(r.cfgs, cfg)
		}
		return r, nil
	}
}

// replay replays every trace of the pass.
func (r *replayInst) replay(kind string, m *meter, tr *tracer, cache *sweep.Cache) (int, []part, error) {
	pass := tr.startPass(kind)
	defer tr.end(pass)
	m.start()
	defer m.stop()
	ops := 0
	var parts []part
	for i, be := range r.backends {
		if i > 0 {
			m.between()
		}
		var sb sweep.Backend = be
		if tr != nil {
			sb = tracedReplay{be, r.cfgs[i], tr}
		}
		n, out, err := runSweep(r.b, sb, tr, cache)
		if err != nil {
			return ops, parts, err
		}
		if n != 1 {
			return ops, parts, fmt.Errorf("replay pass ran %d cells, want 1", n)
		}
		ops += r.jobs
		parts = append(parts, part{fmt.Sprintf("trace%d", i), out})
	}
	return ops, parts, nil
}

// prepare does nothing: a replay pass creates only one cache entry per
// trace, so every cold pass fills a fresh cache itself.
func (r *replayInst) prepare() (int, []part, error) { return 0, nil, nil }

// cold fills a fresh cache, which warm passes read once the pass is
// whole; until then they read the previous pass's.
func (r *replayInst) cold(m *meter, tr *tracer) (int, []part, error) {
	cache, err := hp.NewCellCache(r.b.tempDir("cache"))
	if err != nil {
		return 0, nil, err
	}
	ops, parts, err := r.replay("cold", m, tr, cache)
	if err == nil {
		r.cache = cache
	}
	return ops, parts, err
}

// warm answers the last cold pass's traces from its cache.
func (r *replayInst) warm(m *meter, tr *tracer) (int, []part, error) {
	return r.replay("warm", m, tr, r.cache)
}

func (r *replayInst) cellCache() *sweep.Cache { return r.cache }

func (r *replayInst) close() {}

// --- dist-sweep ---------------------------------------------------------

type distInst struct {
	b        *bench
	backends []sweep.Backend
	coord    *coord.Coordinator // served at setup; prepare uses it
	cache    *sweep.Cache       // filled by prepare
}

func setupDist(b *bench) (instance, error) {
	bs, err := gridBackends()
	if err != nil {
		return nil, err
	}
	d := &distInst{b: b, backends: bs}
	// The set-up coordinator only serves the untimed prepare pass, so it
	// skips checkpoints: set-up then times listening, not file creation,
	// whose cost swings widely on the host the benchmark was built on.
	if d.coord, err = d.serve(nil, nil, false); err != nil {
		return nil, err
	}
	return d, nil
}

// serve starts a coordinator on loopback with both grids queued. With
// checkpoint set it checkpoints after every accepted upload; with a
// cache it retires every lease the cache covers before any worker joins.
//
// Checkpoints go to memory: the coordinator still builds the full state
// for every upload, but the shared disk's fsync latency, which swung a
// pass's time by up to 2x between runs, stays out of the pass. The
// traced run times the durable writer on the same bytes separately.
func (d *distInst) serve(cache *sweep.Cache, tr *tracer, checkpoint bool) (*coord.Coordinator, error) {
	cfg := coord.Config{
		Addr:            "127.0.0.1:0",
		LeaseCells:      leaseCells,
		Cache:           cache,
		WriteCheckpoint: func(string, []byte) error { return nil },
	}
	if checkpoint {
		cfg.Checkpoint = filepath.Join(d.b.scratch, "checkpoint.json")
	}
	if tr != nil {
		cfg.Middleware = tr.middleware
		cfg.WriteCheckpoint = tr.keepCheckpoint
	}
	c := coord.New(cfg)
	for _, be := range d.backends {
		g, err := be.Grid()
		if err != nil {
			return nil, err
		}
		if _, err := c.Enqueue(coord.Sweep{
			Grid: g, Seed: d.b.inputSeed(), Collapse: []string{"rep"},
			BackendName: be.Name(), BackendFP: coord.BackendFingerprint(be),
		}); err != nil {
			return nil, err
		}
	}
	if err := c.Serve(); err != nil {
		return nil, err
	}
	return c, nil
}

// collect waits for every queued sweep and encodes it.
func (d *distInst) collect(ctx context.Context, c *coord.Coordinator, i int, tr *tracer) ([]byte, int, error) {
	col, err := c.WaitSweep(ctx, i)
	if err != nil {
		return nil, 0, err
	}
	return encode(col, tr), col.Cells(), nil
}

// coldPass runs one pass of both grids: for each, two workers execute
// the cells, writing cache entries when cache is set.
func (d *distInst) coldPass(c *coord.Coordinator, m *meter, tr *tracer, cache *sweep.Cache) (int, []part, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	pass := tr.startPass("cold")
	defer tr.end(pass)
	m.start()
	defer m.stop()
	ops := 0
	var parts []part
	for i, be := range d.backends {
		if tr != nil {
			be = tracedBackend{be, tr}
		}
		errs := make(chan error, distPeers)
		for range distPeers {
			wcfg := coord.WorkerConfig{Addr: c.Addr(), Backend: be, Parallel: 1, Cache: cache}
			if tr != nil {
				wcfg.Client = tr.client()
			}
			go func() {
				err := coord.RunWorker(ctx, wcfg)
				if err != nil {
					cancel()
				}
				errs <- err
			}()
		}
		out, n, err := d.collect(ctx, c, i, tr)
		for range distPeers {
			if werr := <-errs; werr != nil && err == nil {
				err = fmt.Errorf("worker: %w", werr)
			}
		}
		if err != nil {
			return ops, parts, err
		}
		ops += n
		parts = append(parts, part{gridParts[i], out})
	}
	if tr != nil {
		tr.mu.Lock()
		tr.coord.leases += c.Stats().Leases
		tr.mu.Unlock()
	}
	return ops, parts, nil
}

// prepare runs a cold pass whose workers fill a fresh cell cache. Timed
// cold passes run without a cache: creating the cache's files dominated
// and destabilized them (see README.md).
func (d *distInst) prepare() (int, []part, error) {
	c := d.coord
	d.coord = nil
	if c == nil {
		var err error
		if c, err = d.serve(nil, nil, false); err != nil {
			return 0, nil, err
		}
	}
	defer shutdown(c)
	cache, err := hp.NewCellCache(d.b.tempDir("cache"))
	if err != nil {
		return 0, nil, err
	}
	d.cache = cache
	return d.coldPass(c, &meter{}, nil, cache)
}

func (d *distInst) cold(m *meter, tr *tracer) (int, []part, error) {
	c, err := d.serve(nil, tr, true)
	if err != nil {
		return 0, nil, err
	}
	defer shutdown(c)
	return d.coldPass(c, m, tr, nil)
}

// shutdown stops a coordinator and drops the workers' idle keep-alive
// connections to it, so the next pass never dials a dead server.
func shutdown(c *coord.Coordinator) {
	c.Close()
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// warm starts a new coordinator over the prepared cache; it retires
// every lease from the cache, so no worker is needed.
func (d *distInst) warm(m *meter, tr *tracer) (int, []part, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	pass := tr.startPass("warm")
	defer tr.end(pass)
	m.start()
	defer m.stop()
	// No request reaches this coordinator, and its few checkpoints are
	// not part of the traced cold pass's count.
	c, err := d.serve(d.cache, nil, true)
	if err != nil {
		return 0, nil, err
	}
	defer shutdown(c)
	ops := 0
	var parts []part
	for i := range d.backends {
		out, n, err := d.collect(ctx, c, i, tr)
		if err != nil {
			return ops, parts, fmt.Errorf("warm pass: %w", err)
		}
		ops += n
		parts = append(parts, part{gridParts[i], out})
	}
	return ops, parts, nil
}

func (d *distInst) cellCache() *sweep.Cache { return d.cache }

func (d *distInst) close() {
	if d.coord != nil {
		shutdown(d.coord)
	}
}
