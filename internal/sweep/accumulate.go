package sweep

import (
	"fmt"
	"io"
)

// Accumulator folds disjoint partial results of one sweep into a single
// running aggregate as they arrive, instead of retaining every part
// until one final merge. The distributed coordinator absorbs each
// accepted lease upload immediately, so its memory is bounded by the
// sweep's group structure and sample volume — O(groups + cells x
// metrics) — rather than by the number of leases.
//
// Because group aggregates retain raw sample multisets and Summarize
// orders samples before computing anything, absorb order never affects
// the finalized result: absorbing parts as they arrive, in any order,
// renders byte-identically to a single-process run for every encoder.
// The running state serializes with WriteShard, which is what makes a
// coordinator checkpoint both durable and exact — a restarted
// coordinator resumes from the deserialized aggregate and still
// produces the single-process bytes.
type Accumulator struct {
	c   *Collapsed
	ran int
}

// NewAccumulator builds an empty running aggregate for the grid: every
// group present, no cells absorbed.
func NewAccumulator(g Grid, seed uint64, collapse ...string) (*Accumulator, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	return &Accumulator{c: newCollapsed(&g, seed, collapse)}, nil
}

// Absorb folds one partial result of the sweep into the running
// aggregate. The part must describe the same sweep (seed, grid size,
// axis sets, group identities); Absorb validates that and rejects a
// part that re-runs a group's first cell the aggregate already holds.
// A rejected part leaves the aggregate unchanged. Callers that hand
// out the cell partition own true disjointness.
func (a *Accumulator) Absorb(part *Collapsed) error {
	if part.Shard.Count > 1 {
		return fmt.Errorf("sweep: absorb of shard slice %s (use Merge)", part.Shard)
	}
	ran, err := a.c.absorb(part)
	if err != nil {
		return err
	}
	a.ran += ran
	return nil
}

// CellRuns returns the number of cell runs absorbed so far.
func (a *Accumulator) CellRuns() int { return a.ran }

// Cells returns the size of the grid the aggregate describes.
func (a *Accumulator) Cells() int { return a.c.cells }

// GroupCounts returns the per-group cell-run counts absorbed so far, in
// group (grid) order.
func (a *Accumulator) GroupCounts() []int {
	counts := make([]int, len(a.c.Groups))
	for i, g := range a.c.Groups {
		counts[i] = g.Count
	}
	return counts
}

// WriteState serializes the running aggregate — raw samples included —
// in the shard-file format, so a coordinator checkpoint can persist it
// and a restarted coordinator can restore it with ReadShard + Absorb.
func (a *Accumulator) WriteState(w io.Writer) error {
	return a.c.WriteShard(w)
}

// Merged validates that the absorbed parts cover every grid cell
// exactly once in aggregate, finalizes the summaries and returns the
// full result — byte-identical, for every encoder, to a single-process
// run of the sweep. The accumulator must not be used afterwards.
func (a *Accumulator) Merged() (*Collapsed, error) {
	if a.ran != a.c.cells {
		return nil, fmt.Errorf("sweep: accumulated parts cover %d cell runs of a %d-cell grid", a.ran, a.c.cells)
	}
	a.c.finalize()
	return a.c, nil
}
