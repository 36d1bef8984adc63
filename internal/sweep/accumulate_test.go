package sweep

import (
	"bytes"
	"fmt"
	"testing"

	"hadooppreempt/internal/sim"
)

// accumTestCell mirrors the shard property tests' synthetic cell:
// measurements derive purely from the cell's seed and coordinates.
func accumTestCell(p Point, rec *Recorder) error {
	rng := p.RNG()
	rec.Observe("m0", float64(p.Index)+rng.Float64())
	if p.Seed%3 != 0 {
		rec.Observe("m1", rng.Float64()*1e9)
	}
	if p.Seed%2 == 0 {
		rec.Label("flag", fmt.Sprintf("cell-%d", p.Index))
	}
	return nil
}

// renderAllFormats encodes a result in every format that applies.
func renderAllFormats(t *testing.T, c *Collapsed) string {
	t.Helper()
	var out bytes.Buffer
	for _, format := range []string{"csv", "json", "table", "series"} {
		if err := c.Write(&out, format); err != nil {
			if format == "series" && len(c.GroupAxes) == 0 {
				continue
			}
			t.Fatal(err)
		}
	}
	return out.String()
}

// splitCells partitions the cell indices of an n-cell grid into random
// contiguous batches, mimicking a coordinator's lease partition.
func splitCells(rng *sim.RNG, n int) [][]int {
	var batches [][]int
	for lo := 0; lo < n; {
		hi := lo + 1 + rng.Intn(3)
		if hi > n {
			hi = n
		}
		batch := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			batch = append(batch, i)
		}
		batches = append(batches, batch)
		lo = hi
	}
	return batches
}

// TestAccumulatorMatchesSingleProcessRun is the incremental-merge
// property: for random grids, collapse sets and batch partitions,
// absorbing the batch results one at a time — in a random order, with
// a serialize/deserialize round trip in the middle (the checkpoint
// path) — renders byte-identically to a direct single-process run.
func TestAccumulatorMatchesSingleProcessRun(t *testing.T) {
	rng := sim.NewRNG(20260807)
	for trial := 0; trial < 20; trial++ {
		g := Grid{}
		axes := 1 + rng.Intn(3)
		for a := 0; a < axes; a++ {
			size := 1 + rng.Intn(4)
			labels := make([]string, size)
			for v := range labels {
				labels[v] = fmt.Sprintf("v%d", v)
			}
			g.Axes = append(g.Axes, Strings(fmt.Sprintf("ax%d", a), labels...))
		}
		var collapse []string
		for _, a := range g.Axes {
			if rng.Intn(2) == 0 {
				collapse = append(collapse, a.Name)
			}
		}
		seed := rng.Uint64()
		want, err := RunCollapsed(g, accumTestCell, Options{Parallel: 4, Seed: seed}, collapse...)
		if err != nil {
			t.Fatal(err)
		}

		batches := splitCells(rng, g.Size())
		parts := make([]*Collapsed, len(batches))
		for i, cells := range batches {
			if parts[i], err = RunCells(g, accumTestCell, seed, 2, cells, collapse...); err != nil {
				t.Fatal(err)
			}
		}

		acc, err := NewAccumulator(g, seed, collapse...)
		if err != nil {
			t.Fatal(err)
		}
		order := rng.Perm(len(parts))
		for k, i := range order {
			if err := acc.Absorb(parts[i]); err != nil {
				t.Fatalf("trial %d: absorb part %d: %v", trial, i, err)
			}
			if k == len(order)/2 {
				// Checkpoint round trip mid-stream: the running state
				// serializes, reloads, and absorbs the rest identically.
				var buf bytes.Buffer
				if err := acc.WriteState(&buf); err != nil {
					t.Fatal(err)
				}
				loaded, err := ReadShard(&buf)
				if err != nil {
					t.Fatal(err)
				}
				if acc, err = NewAccumulator(g, seed, collapse...); err != nil {
					t.Fatal(err)
				}
				if err := acc.Absorb(loaded); err != nil {
					t.Fatalf("trial %d: absorb reloaded state: %v", trial, err)
				}
			}
		}
		if acc.CellRuns() != g.Size() {
			t.Fatalf("trial %d: %d cell runs absorbed, want %d", trial, acc.CellRuns(), g.Size())
		}
		got, err := acc.Merged()
		if err != nil {
			t.Fatal(err)
		}
		if renderAllFormats(t, got) != renderAllFormats(t, want) {
			t.Fatalf("trial %d: accumulated output differs from single-process run", trial)
		}
	}
}

// TestAccumulatorRejectsOverlapAndForeignParts: absorbing a part of a
// different sweep, or one that re-runs a group's first cell, fails
// loudly instead of corrupting the aggregate.
func TestAccumulatorRejectsOverlapAndForeignParts(t *testing.T) {
	g := NewGrid(Strings("a", "x", "y"), Reps(2))
	part, err := RunCells(g, accumTestCell, 7, 1, []int{0, 1}, "rep")
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewAccumulator(g, 7, "rep")
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Absorb(part); err != nil {
		t.Fatal(err)
	}
	if err := acc.Absorb(part); err == nil {
		t.Fatal("absorbing the same part twice succeeded")
	}
	foreign, err := RunCells(g, accumTestCell, 8, 1, []int{2, 3}, "rep")
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Absorb(foreign); err == nil {
		t.Fatal("absorbing a different-seed part succeeded")
	}
	if _, err := acc.Merged(); err == nil {
		t.Fatal("Merged with missing cells succeeded")
	}
}
