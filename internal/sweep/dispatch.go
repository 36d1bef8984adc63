package sweep

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// One dispatch abstraction drives every execution mode of the harness.
// A Dispatcher owns placement and parallelism — which process runs
// which cells, and when — while the collapse engine owns measurement
// semantics (coordinate-derived seeds, streaming group folds, exact
// merges). The in-process worker pool (whole grid or one -shard slice)
// and the distributed coordinator (internal/coord) are two dispatchers
// behind one entry point, so local, sharded and multi-machine sweeps
// share every determinism guarantee.

// Dispatcher executes a scenario grid through a cell function and
// returns the result collapsed over the named axes. Implementations
// must preserve the harness contract: every cell they claim to cover
// runs exactly once with its coordinate-derived seed, so output is
// byte-identical no matter how execution was placed.
type Dispatcher interface {
	Dispatch(g Grid, run CellFunc, seed uint64, collapse ...string) (*Collapsed, error)
}

// CacheBinding names the backend identity a dispatcher keys cell-result
// cache lookups under. The grid and seed complete the key at dispatch
// time — binding there rather than at construction means a dispatcher
// can never consult entries of a different grid than the one it was
// handed. The zero value disables caching.
type CacheBinding struct {
	// Cache is the store; nil disables caching.
	Cache *Cache
	// Backend and FP are the backend's name and content fingerprint.
	Backend string
	FP      string
	// Bypass runs every cell and counts it as bypassed (volatile
	// backends; see Volatile).
	Bypass bool
}

// bind resolves the binding against the dispatched grid and seed.
func (cb CacheBinding) bind(g Grid, seed uint64) *SweepCache {
	if cb.Cache == nil {
		return nil
	}
	if cb.Bypass {
		return cb.Cache.BypassSweep()
	}
	return cb.Cache.Sweep(cb.Backend, cb.FP, g, seed)
}

// PoolDispatcher runs the seed-stable slice of the grid selected by
// Shard through an in-process worker pool of Parallel goroutines
// (values below 1 run serially), consulting the bound cell-result
// cache — when one is configured — before executing each cell. The
// zero Shard runs every cell; any other shard produces a partial
// result that merges with its sibling shards (see Merge) into output
// byte-identical to an unsharded run.
type PoolDispatcher struct {
	Shard    Shard
	Parallel int
	Cache    CacheBinding
}

// Dispatch implements Dispatcher.
func (d PoolDispatcher) Dispatch(g Grid, run CellFunc, seed uint64, collapse ...string) (*Collapsed, error) {
	var cells []int // nil runs the whole grid
	if d.Shard != (Shard{}) {
		if err := d.Shard.validate(); err != nil {
			return nil, err
		}
		if err := g.validate(); err != nil {
			return nil, err
		}
		size := g.Size()
		cells = make([]int, 0, size/max(d.Shard.Count, 1)+1)
		for i := 0; i < size; i++ {
			if d.Shard.owns(i) {
				cells = append(cells, i)
			}
		}
	}
	c, err := RunCells(g, d.Cache.bind(g, seed).WrapCell(run), seed, d.Parallel, cells, collapse...)
	if err != nil {
		return nil, err
	}
	c.Shard = d.Shard
	return c, nil
}

// dispatcher resolves the options to the in-process dispatcher they
// describe. The cache binding carries the store only; the backend
// identity is filled in by RunBackend, which knows the backend
// (grid-level entry points cache under an empty backend name).
func (o Options) dispatcher() PoolDispatcher {
	return PoolDispatcher{Shard: o.Shard, Parallel: o.Parallel, Cache: CacheBinding{Cache: o.Cache}}
}

// RunCells executes the given grid cell indices through a worker pool
// of parallel goroutines, folding outcomes into group aggregates as
// cells complete. A nil cells slice runs the whole grid; an explicit
// slice runs exactly those cells (each at most once), which is how the
// distributed worker executes a leased batch. Every group of the grid
// is present in the result even if none of its cells ran, so partial
// results align for merging (see Merge and Accumulator).
func RunCells(g Grid, run CellFunc, seed uint64, parallel int, cells []int, collapse ...string) (*Collapsed, error) {
	points, err := g.Points(seed)
	if err != nil {
		return nil, err
	}
	if cells == nil {
		cells = make([]int, len(points))
		for i := range cells {
			cells[i] = i
		}
	} else {
		seen := make(map[int]bool, len(cells))
		for _, i := range cells {
			if i < 0 || i >= len(points) {
				return nil, fmt.Errorf("sweep: cell %d outside grid of %d cells", i, len(points))
			}
			if seen[i] {
				return nil, fmt.Errorf("sweep: cell %d dispatched twice", i)
			}
			seen[i] = true
		}
	}
	c := newCollapsed(&g, seed, collapse)
	var mu sync.Mutex
	err = runPool(points, cells, parallel, func() func(int) error {
		rec := &Recorder{}
		return func(i int) error {
			rec.reset()
			if err := run(points[i], rec); err != nil {
				return err
			}
			mu.Lock()
			c.fold(points[i], rec)
			mu.Unlock()
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	c.finalize()
	return c, nil
}

// runPool is the worker-pool loop behind RunCells and therefore every
// in-process dispatcher. It fans the
// given cell indices out across a bounded pool; newWorker is called
// once per goroutine so each worker can own reusable state (a
// Recorder), and the returned function executes one cell. The first
// error in grid order — not completion order — wins; remaining
// in-flight cells still finish.
func runPool(points []Point, cells []int, parallel int, newWorker func() func(int) error) error {
	workers := parallel
	if workers < 1 {
		workers = 1
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	errs := make([]error, len(points))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn := newWorker()
			for i := range next {
				if err := runCell(fn, i); err != nil {
					errs[i] = fmt.Errorf("sweep: cell %q: %w", points[i].Key(), err)
				}
			}
		}()
	}
	for _, i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runCell executes one cell, converting a panic in the cell function
// into a structured error. Backends run arbitrary engine code (replay
// parsers, process supervisors — or injected chaos), and a panicking
// cell must surface as that cell's failure, not kill the whole worker
// process mid-lease.
func runCell(fn func(int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return fn(i)
}

// Skeleton returns the empty collapsed-result skeleton of the grid —
// every group present, no cells folded. The distributed coordinator
// uses it to validate uploaded lease results against the sweep's group
// structure without running any cell itself.
func Skeleton(g Grid, seed uint64, collapse ...string) (*Collapsed, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	c := newCollapsed(&g, seed, collapse)
	c.finalize()
	return c, nil
}
