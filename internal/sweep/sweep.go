// Package sweep is a parallel experiment harness for the simulation
// engine: it fans a declarative grid of scenarios (preemption primitive,
// scheduler, cluster size, memory pressure, workload mix, ...) out across
// a bounded worker pool, hands every cell an isolated deterministic seed,
// and folds every cell's measurements into per-group aggregates as cells
// complete (see RunCollapsed).
//
// Because cell seeds derive from the cell's coordinates rather than from
// execution order (see sim.RNG.Stream), a sweep produces identical
// results at any parallelism level; output encoders are deterministic so
// -parallel 8 and -parallel 1 runs are byte-identical.
package sweep

// Options tunes sweep execution.
type Options struct {
	// Parallel bounds the worker pool; values below 1 run serially.
	Parallel int
	// Seed is the sweep-level base seed every cell seed derives from.
	Seed uint64
	// Shard restricts execution to one seed-stable slice of the grid
	// (the zero value runs every cell).
	Shard Shard
	// Cache, when set, memoizes cell results persistently: cells whose
	// verified entry exists replay it instead of executing, and misses
	// are stored for future runs. Keys cover the grid fingerprint, the
	// backend identity (via RunBackend), the base seed and the cell
	// index, so warm reruns are byte-identical to cold ones.
	// RunCollapsed caches under an empty backend identity.
	Cache *Cache
}
