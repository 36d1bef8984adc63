package sweep

import (
	"sort"
	"strings"

	"hadooppreempt/internal/metrics"
)

// The streaming-collapse engine folds measurements into per-group
// aggregates as cells complete; no cell's outcome is retained. Metric
// names are interned to dense ids, group membership is arithmetic on
// grid coordinates, and each worker reuses one Recorder across its
// cells, so a full 20-repetition grid runs with near-constant
// allocation per cell. Aggregates retain the raw sample
// multiset per (group, metric); because Summarize orders samples before
// computing anything, aggregates built from disjoint cell subsets merge
// — in any order — into results byte-identical to a single pass, which
// is what makes cross-process sharding pure partitioning.

// Recorder receives one cell's measurements in the streaming-collapse
// path. The worker that owns it reuses it across cells, so a steady
// cell records without allocating; implementations must not retain it
// past the cell call.
type Recorder struct {
	names     []string
	vals      []float64
	labelKeys []string
	labelVals []string
}

// Observe records one scalar measurement under name.
func (r *Recorder) Observe(name string, v float64) {
	r.names = append(r.names, name)
	r.vals = append(r.vals, v)
}

// Label records a categorical result (e.g. the chosen victim). Labels
// are retained for the group's first cell in grid order (see
// Group.Extra).
func (r *Recorder) Label(key, value string) {
	r.labelKeys = append(r.labelKeys, key)
	r.labelVals = append(r.labelVals, value)
}

func (r *Recorder) reset() {
	r.names = r.names[:0]
	r.vals = r.vals[:0]
	r.labelKeys = r.labelKeys[:0]
	r.labelVals = r.labelVals[:0]
}

// CellFunc executes one scenario cell, reporting measurements through
// rec. Implementations must build their own isolated simulation state
// (engine, cluster, ...) seeded from p.Seed or p.RNG(): the harness
// calls them from multiple goroutines and shares nothing between cells.
type CellFunc func(p Point, rec *Recorder) error

// Group is one cell group of a Collapsed result: the cells sharing
// coordinates on every non-collapsed axis.
type Group struct {
	// Key identifies the group: the shared "axis=label" coordinates.
	Key string
	// Labels maps each remaining axis name to the group's value label.
	Labels map[string]string
	// Count is the number of cells folded into the group so far.
	Count int
	// Metrics summarizes each recorded value across the group; it is
	// populated when the run (or merge) completes.
	Metrics map[string]metrics.Summary
	// Extra carries the categorical labels recorded by the group's
	// first cell in grid order (empty until that cell ran).
	Extra map[string]string
	// First is the group's first cell in grid order, for typed axis
	// access. It is only valid for in-process runs that executed that
	// cell; results read back from shard files carry a zero Point.
	First Point

	// firstIndex is the grid index of the group's first cell, used to
	// decide which shard contributes Extra/First.
	firstIndex int
	// hasFirst reports whether this result actually ran the first cell.
	hasFirst bool
	// samples holds the raw sample multiset per interned metric id —
	// the state that makes merges exact, including percentiles.
	samples [][]float64
}

// Collapsed is a sweep aggregated over collapsed axes as cells
// complete. Memory is bounded by groups x metrics x samples rather than
// by cells x outcome maps, and disjoint Collapsed results of the same
// sweep merge into the single-process result exactly.
type Collapsed struct {
	// Seed is the sweep-level base seed.
	Seed uint64
	// CollapsedAxes are the axes folded away (typically RepAxis).
	CollapsedAxes []string
	// GroupAxes are the surviving axes, in grid order.
	GroupAxes []string
	// Groups lists every cell group in grid order — all of them, even
	// ones a shard ran no cells of, so shard results align for merging.
	Groups []*Group
	// Shard is the slice of the grid this result covers (Count <= 1
	// means the whole grid).
	Shard Shard

	// cells is the grid size, recorded for shard validation.
	cells int
	// groupStride maps axis position to the group-index stride (0 for
	// collapsed axes): group lookup is arithmetic, not string keys.
	groupStride []int
	// cellStride maps axis position to the cell-index stride, kept so
	// results built from a grid in this process can map cell indices to
	// groups (see GroupOfCell); results read back from shard files do
	// not carry it.
	cellStride []int
	// names and ids intern metric names to dense sample-slice indices.
	names []string
	ids   map[string]int
}

// newCollapsed builds the full group skeleton for a grid in grid order.
// Group enumeration is row-major over the surviving axes, which equals
// the first-appearance order of groups under row-major cell iteration.
func newCollapsed(g *Grid, seed uint64, collapse []string) *Collapsed {
	drop := make(map[string]bool, len(collapse))
	for _, a := range collapse {
		drop[a] = true
	}
	c := &Collapsed{
		Seed:          seed,
		CollapsedAxes: append([]string(nil), collapse...),
		ids:           make(map[string]int),
		groupStride:   make([]int, len(g.Axes)),
	}
	cellStride := make([]int, len(g.Axes))
	stride := 1
	for d := len(g.Axes) - 1; d >= 0; d-- {
		cellStride[d] = stride
		stride *= len(g.Axes[d].Values)
	}
	c.cells = stride
	c.cellStride = cellStride
	groups := 1
	for d := len(g.Axes) - 1; d >= 0; d-- {
		if drop[g.Axes[d].Name] {
			continue
		}
		c.groupStride[d] = groups
		groups *= len(g.Axes[d].Values)
	}
	for _, a := range g.Axes {
		if !drop[a.Name] {
			c.GroupAxes = append(c.GroupAxes, a.Name)
		}
	}
	c.Groups = make([]*Group, groups)
	idx := make([]int, len(g.Axes)) // collapsed axes stay at 0
	for gi := range c.Groups {
		labels := make(map[string]string, len(c.GroupAxes))
		var key strings.Builder
		first := 0
		for d, a := range g.Axes {
			if drop[a.Name] {
				continue
			}
			label := a.Values[idx[d]].Label
			labels[a.Name] = label
			if key.Len() > 0 {
				key.WriteByte(' ')
			}
			key.WriteString(a.Name)
			key.WriteByte('=')
			key.WriteString(label)
			first += idx[d] * cellStride[d]
		}
		c.Groups[gi] = &Group{Key: key.String(), Labels: labels, firstIndex: first}
		for d := len(g.Axes) - 1; d >= 0; d-- {
			if drop[g.Axes[d].Name] {
				continue
			}
			idx[d]++
			if idx[d] < len(g.Axes[d].Values) {
				break
			}
			idx[d] = 0
		}
	}
	return c
}

// fold streams one completed cell into its group. Callers serialize
// access; the fold itself is a handful of appends.
func (c *Collapsed) fold(p Point, rec *Recorder) {
	gi := 0
	for d, s := range c.groupStride {
		gi += p.idx[d] * s
	}
	g := c.Groups[gi]
	g.Count++
	for k, name := range rec.names {
		id, ok := c.ids[name]
		if !ok {
			id = len(c.names)
			c.ids[name] = id
			c.names = append(c.names, name)
		}
		for id >= len(g.samples) {
			g.samples = append(g.samples, nil)
		}
		g.samples[id] = append(g.samples[id], rec.vals[k])
	}
	if p.Index == g.firstIndex {
		g.First = p
		g.hasFirst = true
		if len(rec.labelKeys) > 0 {
			g.Extra = make(map[string]string, len(rec.labelKeys))
			for k := range rec.labelKeys {
				g.Extra[rec.labelKeys[k]] = rec.labelVals[k]
			}
		}
	}
}

// finalize computes every group's summaries from its sample multisets.
func (c *Collapsed) finalize() {
	for _, g := range c.Groups {
		g.Metrics = make(map[string]metrics.Summary, len(g.samples))
		for id, s := range g.samples {
			if len(s) == 0 {
				continue
			}
			g.Metrics[c.names[id]] = metrics.Summarize(s)
		}
	}
}

// MetricNames returns every metric name observed across the result,
// sorted (first-seen order is not deterministic under parallelism).
func (c *Collapsed) MetricNames() []string {
	names := append([]string(nil), c.names...)
	sort.Strings(names)
	return names
}

// Cells returns the size of the grid the result describes (the full
// grid, not the subset of cells this result ran).
func (c *Collapsed) Cells() int { return c.cells }

// GroupOfCell maps a grid cell index to the index of the group the
// cell folds into. It is only available on results built from a Grid
// in this process (Skeleton, RunCells, RunCollapsed); results read
// back from shard files do not carry the grid geometry and report
// ok=false, as do out-of-range cell indices.
func (c *Collapsed) GroupOfCell(cell int) (gi int, ok bool) {
	if len(c.cellStride) == 0 || cell < 0 || cell >= c.cells {
		return 0, false
	}
	prev := c.cells
	for d, s := range c.cellStride {
		size := prev / s
		gi += (cell / s) % size * c.groupStride[d]
		prev = s
	}
	return gi, true
}

// RunCollapsed executes the grid (or the shard of it selected by
// opts.Shard) through the in-process dispatcher the options describe
// and folds every outcome into group aggregates as cells complete,
// collapsing the named axes. The result is identical at any
// parallelism level, and shard results merge (see Merge) into output
// byte-identical to an unsharded run.
func RunCollapsed(g Grid, run CellFunc, opts Options, collapse ...string) (*Collapsed, error) {
	return opts.dispatcher().Dispatch(g, run, opts.Seed, collapse...)
}
