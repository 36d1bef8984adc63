package sweep

// A Backend binds a scenario grid to an execution engine. The harness is
// engine-agnostic: the same grid machinery (coordinate-derived seeds,
// worker pool, streaming collapse, sharding and exact merges) drives the
// discrete-event simulator, a trace replayer, or real OS processes —
// whatever the backend's Cell does with the Point it is handed.
type Backend interface {
	// Name identifies the execution engine (e.g. "sim", "replay", "real").
	Name() string
	// Grid declares the scenario grid the backend executes.
	Grid() (Grid, error)
	// Cell executes one grid cell, reporting measurements through rec.
	// Like CellFunc implementations, Cell must build isolated state from
	// p.Seed: the harness calls it from multiple goroutines and shares
	// nothing between cells.
	Cell(p Point, rec *Recorder) error
}

// FuncBackend adapts a (grid, cell-function) pair to the Backend
// interface.
type FuncBackend struct {
	// Engine is the backend name reported by Name.
	Engine string
	// G is the scenario grid.
	G Grid
	// Run executes one cell.
	Run CellFunc
}

// Name implements Backend.
func (b FuncBackend) Name() string { return b.Engine }

// Grid implements Backend.
func (b FuncBackend) Grid() (Grid, error) { return b.G, nil }

// Cell implements Backend.
func (b FuncBackend) Cell(p Point, rec *Recorder) error { return b.Run(p, rec) }

// RunBackend executes the backend's grid — or the shard of it selected
// by opts.Shard — on the streaming-collapse path, collapsing the named
// axes. Because seeds derive from grid coordinates, every Backend
// inherits the harness guarantees: results are identical at any
// opts.Parallel, and shard results merge (see Merge) into output
// byte-identical to an unsharded run. When opts.Cache is set, cell
// lookups are keyed under the backend's name and content fingerprint
// (see BackendFingerprint) — and skipped entirely for volatile
// backends (see Volatile), whose measurements are not reproducible.
func RunBackend(b Backend, opts Options, collapse ...string) (*Collapsed, error) {
	d := opts.dispatcher()
	if opts.Cache != nil {
		d.Cache = CacheBinding{
			Cache:   opts.Cache,
			Backend: b.Name(),
			FP:      BackendFingerprint(b),
			Bypass:  IsVolatile(b),
		}
	}
	return DispatchBackend(b, d, opts.Seed, collapse...)
}

// BackendFingerprint returns the backend's content fingerprint — the
// signature of data the grid structure cannot cover, e.g. a replay
// backend's trace file — or "" when the backend does not provide one.
// It is the same `Fingerprint() string` contract the distributed
// coordinator verifies at join time (coord.Fingerprinter), reflected
// here so cache keys and join checks can never disagree about what
// identifies a backend's content.
func BackendFingerprint(b Backend) string {
	if f, ok := b.(interface{ Fingerprint() string }); ok {
		return f.Fingerprint()
	}
	return ""
}

// DispatchBackend executes the backend's grid through an arbitrary
// dispatcher — the in-process pool (whole grid or one shard) or the
// distributed coordinator — collapsing the named axes. It is the one
// entry point behind local, sharded and multi-machine sweeps.
func DispatchBackend(b Backend, d Dispatcher, seed uint64, collapse ...string) (*Collapsed, error) {
	g, err := b.Grid()
	if err != nil {
		return nil, err
	}
	return d.Dispatch(g, b.Cell, seed, collapse...)
}
