package sweep

import (
	"fmt"
	"strings"
	"testing"
)

// TestRunCollapsedGroups checks group structure: grid order, labels,
// counts, first-cell extras and typed access through First.
func TestRunCollapsedGroups(t *testing.T) {
	g := NewGrid(Strings("variant", "a", "b"), Reps(4))
	cell := func(pt Point, rec *Recorder) error {
		v := float64(pt.Int(RepAxis))
		if pt.Label("variant") == "b" {
			v *= 2
		}
		rec.Observe("x", v)
		rec.Label("tag", "first-of-"+pt.Label("variant"))
		return nil
	}
	col, err := RunCollapsed(g, cell, Options{Parallel: 2, Seed: 1}, RepAxis)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(col.Groups))
	}
	a, b := col.Groups[0], col.Groups[1]
	if a.Key != "variant=a" || b.Key != "variant=b" {
		t.Fatalf("group keys = %q, %q", a.Key, b.Key)
	}
	if a.Count != 4 || b.Count != 4 {
		t.Fatalf("counts = %d, %d, want 4, 4", a.Count, b.Count)
	}
	if got := a.Metrics["x"]; got.Mean != 1.5 || got.Min != 0 || got.Max != 3 {
		t.Fatalf("variant a summary = %+v", got)
	}
	if got := b.Metrics["x"].Mean; got != 3.0 {
		t.Fatalf("variant b mean = %v, want 3", got)
	}
	if a.Extra["tag"] != "first-of-a" || b.Extra["tag"] != "first-of-b" {
		t.Fatalf("extras = %v, %v", a.Extra, b.Extra)
	}
	if a.First.Label("variant") != "a" || b.First.Label("variant") != "b" {
		t.Fatal("First point does not carry the group's coordinates")
	}
}

// TestRunCollapsedErrorNamesFirstFailingCell: the first error in grid
// order, not completion order, names its cell.
func TestRunCollapsedErrorNamesFirstFailingCell(t *testing.T) {
	cell := func(pt Point, rec *Recorder) error {
		if pt.Label("prim") == "kill" {
			return fmt.Errorf("boom at r=%v", pt.Float("r"))
		}
		return nil
	}
	_, err := RunCollapsed(testGrid(1), cell, Options{Parallel: 4, Seed: 1}, RepAxis)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), `cell "prim=kill r=10 rep=0"`) {
		t.Fatalf("error %q does not name the first failing cell", err)
	}
}

// allocCell derives measurements from the seed bits alone, so the
// allocation bound measures pure harness overhead rather than scenario
// cost.
func allocCell(pt Point, rec *Recorder) error {
	v := float64(pt.Seed >> 12)
	rec.Observe("sojourn_s", v)
	rec.Observe("makespan_s", 2*v)
	return nil
}

// TestStreamingCollapseAllocsPerCell bounds the harness's allocations
// on a synthetic grid, where harness overhead, not simulation,
// dominates. With one reused Recorder per worker and interned metric
// names, a whole run — grid setup, group skeleton and sample-slice
// growth included — costs at most one allocation per cell (about 0.44
// with Go 1.24).
func TestStreamingCollapseAllocsPerCell(t *testing.T) {
	g := func() Grid { return testGrid(100) }
	cells := float64(g().Size())
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := RunCollapsed(g(), allocCell, Options{Seed: 1}, RepAxis); err != nil {
			panic(err)
		}
	})
	t.Logf("allocs/cell: %.2f", allocs/cells)
	if allocs > cells {
		t.Fatalf("RunCollapsed allocates %.0f times for %.0f cells (%.2f/cell), want <= 1/cell",
			allocs, cells, allocs/cells)
	}
}
